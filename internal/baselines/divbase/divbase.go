// Package divbase implements the paper's diversification baseline (§7.1):
// the incremental algorithm of Minack et al. (SIGIR 2011) adapted to a
// distributed setting over CAN. Each single-tuple diversification step is
// resolved by flooding the whole overlay — every peer evaluates its best
// local candidate and streams it back to the initiator, which keeps the
// incremental minimum. The greedy driver is shared with the RIPPLE-based
// method, enforcing the paper's fairness rule (identical result at each
// step), so the metrics compare pure framework cost: no region pruning and no
// prioritisation means the baseline pays the full network on every step.
package divbase

import (
	"math"

	"ripple/internal/baselines/naive"
	"ripple/internal/can"
	"ripple/internal/dataset"
	"ripple/internal/diversify"
	"ripple/internal/overlay"
	"ripple/internal/sim"
)

// NewSolver returns a SingleSolver that floods the CAN overlay from the given
// initiator for every single-tuple query.
func NewSolver(initiator *can.Peer, q diversify.Query) diversify.SingleSolver {
	return func(base []dataset.Tuple, exclude map[uint64]bool, tau float64) (*dataset.Tuple, sim.Stats) {
		phi := q.PhiScorer(base)
		res := naive.Broadcast(initiator, func(w overlay.Node) []dataset.Tuple {
			// Each peer streams its single best eligible candidate; local
			// filtering by tau is the only pruning the baseline performs.
			var best *dataset.Tuple
			bestScore := math.Inf(1)
			for i := range w.Tuples() {
				t := &w.Tuples()[i]
				if exclude[t.ID] {
					continue
				}
				s := phi(t.Vec)
				if s < bestScore || (s == bestScore && best != nil && t.ID < best.ID) {
					best, bestScore = t, s
				}
			}
			if best == nil || bestScore >= tau {
				return nil
			}
			return []dataset.Tuple{*best}
		})
		var winner *dataset.Tuple
		winScore := math.Inf(1)
		for i := range res.Answers {
			t := &res.Answers[i]
			s := phi(t.Vec)
			if s < winScore || (s == winScore && winner != nil && t.ID < winner.ID) {
				winner, winScore = t, s
			}
		}
		if winner != nil && winScore >= tau {
			winner = nil
		}
		return winner, res.Stats
	}
}

// Greedy answers a full k-diversification query with the flooding baseline.
func Greedy(net *can.Network, initiator *can.Peer, q diversify.Query, k, maxIters int) diversify.GreedyResult {
	return diversify.Greedy(q, k, NewSolver(initiator, q), maxIters)
}
