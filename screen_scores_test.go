package trigene

import (
	"reflect"
	"strings"
	"testing"
)

// Unit tests for the survivor-selection machinery the cluster
// coordinator and the local screened search share: deterministic
// top-S selection with index tie-breaks, elementwise shard merges,
// and seed-list extraction.

// TestSelectSurvivorsDeterministic: survivors are the top-S seen SNPs
// under the scan's objective, ties broken by SNP index, returned in
// ascending index order with the cut-line score. Unseen SNPs never
// survive, however attractive their (stale) Best entry looks.
func TestSelectSurvivorsDeterministic(t *testing.T) {
	sc := &ScreenScores{
		SNPs: 6,
		// k2: lower is better. SNP 2 carries the best-looking score but
		// was never scanned, so it must not survive.
		Best:      []float64{5, 2, 0, 2, 1, 0.5},
		Seen:      []bool{true, true, false, true, true, true},
		Objective: "k2",
	}
	surv, thr, err := sc.SelectSurvivors(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(surv, []int{1, 4, 5}) {
		t.Errorf("survivors = %v, want [1 4 5]", surv)
	}
	if thr != 2 {
		t.Errorf("threshold = %g, want 2 (the weakest survivor)", thr)
	}

	// SNPs 1 and 3 tie at 2; the lower index survives first, so S=4
	// pulls in SNP 3 and the threshold stays at the tie score.
	surv, thr, err = sc.SelectSurvivors(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(surv, []int{1, 3, 4, 5}) {
		t.Errorf("survivors = %v, want [1 3 4 5]", surv)
	}
	if thr != 2 {
		t.Errorf("threshold = %g, want 2", thr)
	}

	// A budget past the seen count returns every seen SNP.
	surv, _, err = sc.SelectSurvivors(100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(surv, []int{0, 1, 3, 4, 5}) {
		t.Errorf("over-budget survivors = %v", surv)
	}

	// A scan with no usable objective cannot rank anything.
	bad := &ScreenScores{SNPs: 2, Objective: "nope"}
	if _, _, err := bad.SelectSurvivors(1); err == nil {
		t.Error("unknown objective accepted")
	}
}

// TestMergeScreensElementwise: shard scans merge to the full scan —
// per-SNP bests take the objective-better entry, unseen slots stay
// gated, pair counts and durations sum, and the seed lists re-rank
// into one list at the widest requested depth.
func TestMergeScreensElementwise(t *testing.T) {
	// mi: higher is better.
	a := &ScreenScores{
		SNPs:      4,
		Best:      []float64{0.5, 0.2, 0, 0},
		Seen:      []bool{true, true, false, false},
		Objective: "mi",
		Pairs:     3,
		TopPairs: []SearchCandidate{
			{SNPs: []int{0, 1}, Score: 0.5},
			{SNPs: []int{0, 2}, Score: 0.2},
		},
		TopPairLimit: 2,
		DurationNs:   5,
	}
	b := &ScreenScores{
		SNPs:      4,
		Best:      []float64{0.1, 0.9, 0.3, 0},
		Seen:      []bool{true, true, true, false},
		Objective: "mi",
		Pairs:     4,
		TopPairs: []SearchCandidate{
			{SNPs: []int{1, 3}, Score: 0.9},
			{SNPs: []int{2, 3}, Score: 0.3},
		},
		TopPairLimit: 2,
		DurationNs:   7,
	}
	out, err := MergeScreens(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Best, []float64{0.5, 0.9, 0.3, 0}) {
		t.Errorf("merged bests = %v", out.Best)
	}
	if !reflect.DeepEqual(out.Seen, []bool{true, true, true, false}) {
		t.Errorf("merged seen = %v", out.Seen)
	}
	if out.Pairs != 7 || out.DurationNs != 12 {
		t.Errorf("merged pairs/duration = %d/%d, want 7/12", out.Pairs, out.DurationNs)
	}
	wantSeeds := []SearchCandidate{
		{SNPs: []int{1, 3}, Score: 0.9},
		{SNPs: []int{0, 1}, Score: 0.5},
	}
	if !reflect.DeepEqual(out.TopPairs, wantSeeds) {
		t.Errorf("merged seeds = %+v, want %+v", out.TopPairs, wantSeeds)
	}

	// The merged scan selects survivors like a single scan would.
	surv, thr, err := out.SelectSurvivors(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(surv, []int{0, 1}) || thr != 0.5 {
		t.Errorf("merged survivors = %v (threshold %g), want [0 1] at 0.5", surv, thr)
	}
}

// TestMergeScreensRejections: merges across incompatible scans fail
// loudly instead of producing a silently wrong survivor set.
func TestMergeScreensRejections(t *testing.T) {
	ok := &ScreenScores{SNPs: 3, Best: make([]float64, 3), Seen: make([]bool, 3), Objective: "k2"}
	if _, err := MergeScreens(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergeScreens(nil); err == nil {
		t.Error("nil scan accepted")
	}
	if _, err := MergeScreens(ok, nil); err == nil {
		t.Error("trailing nil scan accepted")
	}
	if _, err := MergeScreens(ok, &ScreenScores{SNPs: 5, Objective: "k2"}); err == nil {
		t.Error("SNP-count mismatch accepted")
	}
	if _, err := MergeScreens(ok, &ScreenScores{SNPs: 3, Objective: "mi"}); err == nil {
		t.Error("objective mismatch accepted")
	}
	if _, err := MergeScreens(&ScreenScores{SNPs: 3, Objective: "nope"}); err == nil {
		t.Error("unknown objective accepted")
	}
	// A shard whose per-SNP slices are shorter than SNPs (a worker-posted
	// body) must fail the merge, not index past them.
	short := &ScreenScores{SNPs: 3, Best: []float64{1}, Seen: []bool{true, true, true}, Objective: "k2"}
	if _, err := MergeScreens(ok, short); err == nil {
		t.Error("short Best accepted")
	}
	if _, err := MergeScreens(&ScreenScores{SNPs: -1, Objective: "k2"}); err == nil {
		t.Error("negative SNP count accepted")
	}
	// The mismatch cases above are misshaped as well; a well-shaped scan
	// under another objective must be refused for the mismatch itself.
	mi := &ScreenScores{SNPs: 3, Best: make([]float64, 3), Seen: make([]bool, 3), Objective: "mi"}
	if _, err := MergeScreens(ok, mi); err == nil || !strings.Contains(err.Error(), "cannot merge") {
		t.Errorf("well-shaped objective mismatch: %v, want a merge refusal", err)
	}
}

// TestSeedListCapsAndFilters: the seed list takes the top-n scan
// pairs in rank order, tolerating a request past the list and
// skipping entries that are not pairs.
func TestSeedListCapsAndFilters(t *testing.T) {
	sc := &ScreenScores{TopPairs: []SearchCandidate{
		{SNPs: []int{0, 3}, Score: 1},
		{SNPs: []int{7}, Score: 2}, // not a pair; dropped, not misread
		{SNPs: []int{1, 2}, Score: 3},
	}}
	if got := sc.SeedList(10); !reflect.DeepEqual(got, [][2]int{{0, 3}, {1, 2}}) {
		t.Errorf("SeedList(10) = %v", got)
	}
	if got := sc.SeedList(1); !reflect.DeepEqual(got, [][2]int{{0, 3}}) {
		t.Errorf("SeedList(1) = %v", got)
	}
	if got := sc.SeedList(0); len(got) != 0 {
		t.Errorf("SeedList(0) = %v", got)
	}
}
