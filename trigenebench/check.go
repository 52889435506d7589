package main

import (
	"fmt"
	"math"
	"slices"

	"trigene"
)

// answer is what an operation produced, in the shape the reference
// stores.
type answer struct {
	TopK         []trigene.SearchCandidate
	Combinations int64
	Perm         []trigene.PermCandidate
}

// check compares an answer with the stored reference: the planted
// triple is Best where the workload plants one, the top-K matches SNP
// for SNP and score for score to the bit, the combination count
// matches where the reference records it, and every permutation
// result (observed score, hit count, p-value) matches to the bit.
func (r *reference) check(got answer) error {
	w := workloads[r.Workload]
	if w.plantedBest {
		if len(got.TopK) == 0 || !slices.Equal(got.TopK[0].SNPs, r.Planted) {
			return fmt.Errorf("best is not the planted triple %v", r.Planted)
		}
	}
	if len(got.TopK) != len(r.TopK) {
		return fmt.Errorf("top-K has %d candidates, reference %d", len(got.TopK), len(r.TopK))
	}
	for i, c := range got.TopK {
		want := r.TopK[i]
		if !slices.Equal(c.SNPs, want.SNPs) || math.Float64bits(c.Score) != math.Float64bits(want.Score) {
			return fmt.Errorf("top-K[%d] = %v %v, reference %v %v", i, c.SNPs, c.Score, want.SNPs, want.Score)
		}
	}
	if r.Combinations != 0 && got.Combinations != r.Combinations {
		return fmt.Errorf("%d combinations scored, reference %d", got.Combinations, r.Combinations)
	}
	if len(got.Perm) != len(r.Perm) {
		return fmt.Errorf("%d permutation results, reference %d", len(got.Perm), len(r.Perm))
	}
	for i, p := range got.Perm {
		want := r.Perm[i]
		if !slices.Equal(p.SNPs, want.SNPs) || p.AsGoodOrBetter != want.AsGoodOrBetter ||
			math.Float64bits(p.Observed) != math.Float64bits(want.Observed) ||
			math.Float64bits(p.PValue) != math.Float64bits(want.PValue) {
			return fmt.Errorf("permutation result %d = %+v, reference %+v", i, p, want)
		}
	}
	return nil
}
