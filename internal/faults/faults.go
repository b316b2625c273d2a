// Package faults is a deterministic, seedable fault-injection layer for the
// RIPPLE runtimes. An Injector decides, per link traversal, whether the
// message goes through, is dropped, reaches a peer that crashes before
// replying, or crosses a slow link. Decisions are pure functions of
// (seed, from, to, attempt) — a hash, not a shared RNG stream — so the same
// configuration produces the same fault pattern regardless of goroutine
// scheduling or the order in which links are tried. That property is what
// lets the structural engine (internal/core) and the TCP peers
// (internal/netpeer) be tested against each other under identical injected
// failures.
package faults

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"time"
)

// Outcome is the injector's verdict for one link traversal attempt.
type Outcome int

const (
	// OK delivers the message normally.
	OK Outcome = iota
	// Drop loses the message: the attempt fails without reaching the peer.
	Drop
	// Crash reaches the peer, which dies before replying: the work may have
	// happened but its results are lost to the caller.
	Crash
	// Delay delivers the message over a slow link (extra hops in the logical
	// runtimes, wall-clock sleep over TCP).
	Delay
)

// String names an outcome for logs.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Drop:
		return "drop"
	case Crash:
		return "crash"
	case Delay:
		return "delay"
	}
	return "outcome(" + strconv.Itoa(int(o)) + ")"
}

// Config sets the per-link fault probabilities and the shape of delays.
// Rates are probabilities in [0,1] evaluated independently per link attempt;
// they are tried in the order drop, crash, delay on a single uniform draw, so
// their sum must not exceed 1.
type Config struct {
	Seed      int64
	DropRate  float64
	CrashRate float64
	DelayRate float64
	// DelayHops is the extra logical latency charged on a delayed link by the
	// hop-clock structural engine.
	DelayHops int
	// Delay is the wall-clock stall applied to a delayed link by the TCP
	// transport.
	Delay time.Duration
	// SlowPeers lists peer IDs whose every inbound link behaves as Delay
	// (unless the draw already dropped or crashed it).
	SlowPeers []string
}

// Injector makes deterministic fault decisions. The zero value and the nil
// injector both mean "no faults": every method is nil-safe so callers thread
// an *Injector through unconditionally.
type Injector struct {
	cfg  Config
	slow map[string]bool
}

// New builds an injector; a nil result is returned for an all-zero config so
// the fault-free path stays byte-identical to not wiring faults at all.
func New(cfg Config) *Injector {
	in := &Injector{cfg: cfg}
	if len(cfg.SlowPeers) > 0 {
		in.slow = make(map[string]bool, len(cfg.SlowPeers))
		for _, p := range cfg.SlowPeers {
			in.slow[p] = true
		}
	}
	return in
}

// Config returns the injector's configuration (zero Config when nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Enabled reports whether the injector can produce any non-OK outcome.
func (in *Injector) Enabled() bool {
	if in == nil {
		return false
	}
	return in.cfg.DropRate > 0 || in.cfg.CrashRate > 0 || in.cfg.DelayRate > 0 ||
		len(in.slow) > 0
}

// Decide returns the fate of the attempt-th try of a message from peer
// `from` to peer `to` (attempt 0 is the first try). Retries of the same link
// re-roll, so a transient drop can succeed on a later attempt — exactly the
// failure model retry-with-backoff is built for.
func (in *Injector) Decide(from, to string, attempt int) Outcome {
	if in == nil {
		return OK
	}
	u := Uniform01(in.cfg.Seed, from, to, strconv.Itoa(attempt))
	switch {
	case u < in.cfg.DropRate:
		return Drop
	case u < in.cfg.DropRate+in.cfg.CrashRate:
		return Crash
	case u < in.cfg.DropRate+in.cfg.CrashRate+in.cfg.DelayRate:
		return Delay
	}
	if in.slow[to] {
		return Delay
	}
	return OK
}

// Uniform01 hashes the seed and parts into a uniform value in [0,1). It is
// the package's only randomness source: FNV-1a over the seed and the
// NUL-separated parts, passed through a 64-bit finalizer (FNV alone barely
// moves the high bits when only trailing bytes differ, e.g. consecutive
// attempt numbers), with the top 53 bits mapped to the unit interval.
func Uniform01(seed int64, parts ...string) float64 {
	h := fnv.New64a()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	h.Write(s[:])
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return float64(mix64(h.Sum64())>>11) / float64(uint64(1)<<53)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so every input
// bit flips about half of the output bits.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
