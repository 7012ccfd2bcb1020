package randx

import (
	"math"
	"reflect"
	"testing"
)

func TestExponentialWeights(t *testing.T) {
	if w := ExponentialWeights(0, 1); w != nil {
		t.Errorf("n=0 should return nil, got %v", w)
	}

	// lambda = 0 is uniform.
	w := ExponentialWeights(5, 0)
	for i, x := range w {
		if x != 1 {
			t.Errorf("uniform weight[%d] = %g, want 1", i, x)
		}
	}

	// lambda > 0 strictly decreases.
	w = ExponentialWeights(10, 1)
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not decreasing at %d: %g >= %g", i, w[i], w[i-1])
		}
	}

	// Shape is size-independent: head/tail ratio depends only on lambda.
	w10 := ExponentialWeights(10, 2)
	w100 := ExponentialWeights(100, 2)
	r10 := w10[0] / w10[len(w10)-1]
	r100 := w100[0] / w100[len(w100)-1]
	// ratios: exp(lambda*10*(n-1)/n) -> close but not identical; same order.
	if math.Abs(math.Log(r10)-math.Log(r100)) > 2.1 {
		t.Errorf("shape not size-independent: ratios %g vs %g", r10, r100)
	}

	// lambda < 0 strictly increases (reverse skew).
	w = ExponentialWeights(10, -1)
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Errorf("negative lambda weights not increasing at %d", i)
		}
	}
}

func TestUniformAndZipfWeights(t *testing.T) {
	if w := UniformWeights(0); w != nil {
		t.Error("UniformWeights(0) should be nil")
	}
	if w := ZipfWeights(0, 1); w != nil {
		t.Error("ZipfWeights(0) should be nil")
	}
	w := ZipfWeights(4, 1)
	want := []float64{1, 0.5, 1.0 / 3.0, 0.25}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-12 {
			t.Errorf("zipf[%d] = %g, want %g", i, w[i], want[i])
		}
	}
}

func TestSampleWithReplacementBasics(t *testing.T) {
	rng := New(1)
	w := UniformWeights(10)
	s, err := SampleWithReplacement(rng, w, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	for _, idx := range s {
		if idx < 0 || idx >= 10 {
			t.Fatalf("index %d out of range", idx)
		}
	}
}

func TestSampleWithReplacementErrors(t *testing.T) {
	rng := New(1)
	if _, err := SampleWithReplacement(rng, nil, 5); err == nil {
		t.Error("empty weights not reported")
	}
	if _, err := SampleWithReplacement(rng, []float64{1}, -1); err == nil {
		t.Error("negative k not reported")
	}
	if _, err := SampleWithReplacement(rng, []float64{-1, 2}, 1); err == nil {
		t.Error("negative weight not reported")
	}
	if _, err := SampleWithReplacement(rng, []float64{0, 0}, 1); err == nil {
		t.Error("all-zero weights not reported")
	}
	if _, err := SampleWithReplacement(rng, []float64{math.NaN()}, 1); err == nil {
		t.Error("NaN weight not reported")
	}
}

func TestSampleWithReplacementRespectsWeights(t *testing.T) {
	rng := New(42)
	w := []float64{9, 1}
	counts := [2]int{}
	s, err := SampleWithReplacement(rng, w, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range s {
		counts[idx]++
	}
	frac := float64(counts[0]) / 10000
	if frac < 0.87 || frac > 0.93 {
		t.Errorf("heavy item drawn %.3f of the time, want ~0.9", frac)
	}
}

func TestSampleWithoutReplacementNoDuplicates(t *testing.T) {
	rng := New(7)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		k := rng.Intn(n + 10) // may exceed n: clamped
		w := ExponentialWeights(n, 2)
		s, err := SampleWithoutReplacement(rng, w, k)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool, len(s))
		for _, idx := range s {
			if idx < 0 || idx >= n {
				t.Fatalf("index %d out of range [0,%d)", idx, n)
			}
			if seen[idx] {
				t.Fatalf("duplicate index %d in without-replacement sample", idx)
			}
			seen[idx] = true
		}
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(s) != wantLen {
			t.Fatalf("len = %d, want %d", len(s), wantLen)
		}
	}
}

func TestSampleWithoutReplacementSkipsZeroWeights(t *testing.T) {
	rng := New(3)
	w := []float64{0, 1, 0, 1, 0}
	s, err := SampleWithoutReplacement(rng, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("len = %d, want 2 (only two positive weights)", len(s))
	}
	for _, idx := range s {
		if idx != 1 && idx != 3 {
			t.Fatalf("drew zero-weight index %d", idx)
		}
	}
}

func TestSampleWithoutReplacementBiased(t *testing.T) {
	// With strongly skewed weights, the top item should almost always be in
	// a small sample.
	rng := New(9)
	w := ExponentialWeights(100, 4)
	hit := 0
	for trial := 0; trial < 200; trial++ {
		s, err := SampleWithoutReplacement(rng, w, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range s {
			if idx == 0 {
				hit++
				break
			}
		}
	}
	if hit < 190 {
		t.Errorf("top-weight item appeared in only %d/200 samples", hit)
	}
}

func TestShuffle(t *testing.T) {
	rng := New(5)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	orig := make([]int, len(xs))
	copy(orig, xs)
	Shuffle(rng, xs)
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 36 {
		t.Errorf("shuffle changed contents: %v", xs)
	}
}

func TestDeterminism(t *testing.T) {
	w := ExponentialWeights(50, 1)
	a, err := SampleWithoutReplacement(New(123), w, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleWithoutReplacement(New(123), w, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different samples: %v vs %v", a, b)
		}
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	// Same path: same seed.
	if Derive(1, 2, 3) != Derive(1, 2, 3) {
		t.Error("Derive not deterministic")
	}
	// Distinct base seeds, ids, and path lengths must all produce distinct
	// child seeds (no collisions among a realistic working set).
	seen := map[int64][]string{}
	add := func(label string, v int64) {
		seen[v] = append(seen[v], label)
	}
	for seed := int64(0); seed < 20; seed++ {
		for cell := int64(0); cell < 20; cell++ {
			for run := int64(0); run < 5; run++ {
				add("triple", Derive(seed, cell, run))
			}
			add("pair", Derive(seed, cell))
		}
		add("solo", Derive(seed))
	}
	for v, labels := range seen {
		if len(labels) > 1 {
			t.Fatalf("Derive collision on %d: %v", v, labels)
		}
	}
}

// sim.GroundTruth.SampleSource hands SampleWithoutReplacement's output to
// callers in order (the first index drawn is the first observation of the
// source), so the order — smallest exponential key first — is a contract,
// not just the selected set.
func TestSampleWithoutReplacementGoldenOrder(t *testing.T) {
	got, err := SampleWithoutReplacement(New(7), ExponentialWeights(40, 1), 12)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 2, 23, 0, 1, 5, 6, 3, 4, 7, 9, 11}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SampleWithoutReplacement order = %v, want %v", got, want)
	}
}
