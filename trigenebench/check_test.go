package main

import (
	"slices"
	"testing"

	"trigene"
)

func sampleReference() *reference {
	return &reference{
		Workload: "screen_perm",
		Planted:  []int{3, 8, 12},
		TopK: []trigene.SearchCandidate{
			{SNPs: []int{3, 8, 12}, Score: 1357.25},
			{SNPs: []int{3, 8, 40}, Score: 1601.5},
		},
		Perm: []trigene.PermCandidate{
			{SNPs: []int{3, 8, 12}, Observed: 1357.25, AsGoodOrBetter: 0, PValue: 1.0 / 10001},
			{SNPs: []int{3, 8, 40}, Observed: 1601.5, AsGoodOrBetter: 2, PValue: 3.0 / 10001},
		},
	}
}

// cloneAnswer returns the reference's own answer, deep-copied so a
// case can perturb it.
func cloneAnswer(r *reference) answer {
	a := answer{Combinations: r.Combinations}
	for _, c := range r.TopK {
		a.TopK = append(a.TopK, trigene.SearchCandidate{SNPs: slices.Clone(c.SNPs), Score: c.Score})
	}
	for _, p := range r.Perm {
		p.SNPs = slices.Clone(p.SNPs)
		a.Perm = append(a.Perm, p)
	}
	return a
}

func TestCheckAcceptsReference(t *testing.T) {
	ref := sampleReference()
	if err := ref.check(cloneAnswer(ref)); err != nil {
		t.Fatalf("the reference's own answer failed its check: %v", err)
	}
}

// A perturbed answer must count as failed, never as passed.
func TestCheckRejectsPerturbedAnswers(t *testing.T) {
	cases := map[string]func(*answer){
		"swapped top-K scores": func(a *answer) { a.TopK[0].Score, a.TopK[1].Score = a.TopK[1].Score, a.TopK[0].Score },
		"score off by one ulp": func(a *answer) { a.TopK[1].Score = 1601.5000000000002 },
		"swapped candidates":   func(a *answer) { a.TopK[0], a.TopK[1] = a.TopK[1], a.TopK[0] },
		"truncated top-K":      func(a *answer) { a.TopK = a.TopK[:1] },
		"wrong p-value":        func(a *answer) { a.Perm[1].PValue = 4.0 / 10001 },
		"wrong hit count":      func(a *answer) { a.Perm[0].AsGoodOrBetter = 1 },
		"missing p-values":     func(a *answer) { a.Perm = nil },
		"combination count":    func(a *answer) { a.Combinations = 7 },
	}
	for name, perturb := range cases {
		ref := sampleReference()
		if name == "combination count" {
			ref.Combinations = 8
		}
		got := cloneAnswer(ref)
		perturb(&got)
		if err := ref.check(got); err == nil {
			t.Errorf("%s: perturbed answer passed the check", name)
		}
	}
}

// The planted triple must be Best where the workload plants one, even
// when the reference itself were to disagree.
func TestCheckRequiresPlantedBest(t *testing.T) {
	ref := sampleReference()
	ref.Planted = []int{3, 8, 40}
	if err := ref.check(cloneAnswer(ref)); err == nil {
		t.Fatal("an answer whose best is not the planted triple passed")
	}
}
