module ripple/benchmark

go 1.22

require ripple v0.0.0

replace ripple => ../
