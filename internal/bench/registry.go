package bench

import "math/bits"

// Runner regenerates one figure/table of the paper under a configuration.
type Runner struct {
	Name string
	Desc string
	Run  func(cfg Config) *Result
}

// Runners lists every reproducible experiment in presentation order.
func Runners() []Runner {
	return []Runner{
		{Name: "lemmas", Desc: "Lemmas 1-3: worst-case latency, analytic vs measured", Run: func(cfg Config) *Result {
			return Lemmas(log2int(cfg.DefaultSize))
		}},
		{Name: "fig4", Desc: "Figure 4: top-k vs overlay size (NBA)", Run: Fig4},
		{Name: "fig5", Desc: "Figure 5: top-k vs dimensionality (SYNTH)", Run: Fig5},
		{Name: "fig6", Desc: "Figure 6: top-k vs result size (NBA)", Run: Fig6},
		{Name: "fig7", Desc: "Figure 7: skyline vs overlay size (NBA)", Run: Fig7},
		{Name: "fig8", Desc: "Figure 8: skyline vs dimensionality (SYNTH)", Run: Fig8},
		{Name: "fig9", Desc: "Figure 9: diversification vs overlay size (MIRFLICKR)", Run: Fig9},
		{Name: "fig10", Desc: "Figure 10: diversification vs dimensionality (SYNTH)", Run: Fig10},
		{Name: "fig11", Desc: "Figure 11: diversification vs result size (MIRFLICKR)", Run: Fig11},
		{Name: "fig12", Desc: "Figure 12: diversification vs rel/div trade-off (MIRFLICKR)", Run: Fig12},
		{Name: "knn", Desc: "New instantiation: kNN vs overlay size (SYNTH), per ripple setting", Run: KNNQuery},
		{Name: "churn", Desc: "§7.1 dynamic topology: increasing + decreasing stages", Run: Churn},
		{Name: "trace-depth", Desc: "Trace-derived: hop-tree depth distribution and size vs r (NBA)", Run: TraceDepth},
		{Name: "churn-faults", Desc: "Robustness: top-k recall vs injected link-failure rate under churn", Run: ChurnFaults},
		{Name: "recovery", Desc: "Robustness: recall vs drop rate per zone replication factor (failover on)", Run: Recovery},
		{Name: "ablation-border", Desc: "Ablation: §5.2 border-link optimisation on/off", Run: AblationBorder},
		{Name: "ablation-overlay", Desc: "Ablation: RIPPLE over MIDAS vs over CAN", Run: AblationOverlay},
		{Name: "plan", Desc: "Adaptive planner: per-query mode/r selection vs static ripple settings on a mixed workload", Run: PlanAdaptive},
	}
}

// Find returns the runner with the given name, or nil.
func Find(name string) *Runner {
	for _, r := range Runners() {
		if r.Name == name {
			r := r
			return &r
		}
	}
	return nil
}

func log2int(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n)
}
