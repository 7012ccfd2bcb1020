package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/engine"
)

// estimateBody mirrors one estimator's wire form (NaN renders as null).
type estimateBody struct {
	Observed  *float64 `json:"observed"`
	Estimated *float64 `json:"estimated"`
	Valid     bool     `json:"valid"`
}

// queryBody mirrors the /v1/query reply fields the oracle checks.
type queryBody struct {
	Observed  *float64                `json:"observed"`
	Estimates map[string]estimateBody `json:"estimates"`
	Best      *struct {
		Estimator string   `json:"estimator"`
		Estimated *float64 `json:"estimated"`
	} `json:"best"`
	Extreme *struct {
		Observed *float64 `json:"observed"`
	} `json:"extreme"`
	Groups []struct {
		Key    string    `json:"key"`
		Result queryBody `json:"result"`
	} `json:"groups"`
}

// defaultEstimatorNames are the estimators every SUM/COUNT/AVG answer
// must carry, valid.
var defaultEstimatorNames = func() []string {
	var out []string
	for _, e := range engine.DefaultEstimators() {
		out = append(out, e.Name())
	}
	return out
}()

func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// checkAnswer verifies one answer of request r against the closed-world
// answer over the entities in mask: the observed value (per group for
// GROUP BY) and the presence and validity of every estimator.
func (w *workload) checkAnswer(r request, body []byte, mask []bool) error {
	var qb queryBody
	if err := json.Unmarshal(body, &qb); err != nil {
		return fmt.Errorf("decoding reply: %v", err)
	}
	want := w.expected(r, mask)
	if !r.groupBy {
		return checkScalar(r.agg, &qb, want[""])
	}
	if len(qb.Groups) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(qb.Groups), len(want))
	}
	for _, g := range qb.Groups {
		key := strings.Trim(g.Key, "'")
		wv, ok := want[key]
		if !ok {
			return fmt.Errorf("unexpected group %q", g.Key)
		}
		if err := checkScalar(r.agg, &g.Result, wv); err != nil {
			return fmt.Errorf("group %s: %v", key, err)
		}
	}
	return nil
}

func checkScalar(agg string, qb *queryBody, want float64) error {
	obs := qb.Observed
	if agg == "MIN" || agg == "MAX" {
		if qb.Extreme == nil {
			return fmt.Errorf("no extreme analysis")
		}
		obs = qb.Extreme.Observed
	}
	if obs == nil || !near(*obs, want) {
		return fmt.Errorf("observed %v, want %v", fmtPtr(obs), want)
	}
	switch agg {
	case "SUM", "COUNT", "AVG":
		for _, name := range defaultEstimatorNames {
			e, ok := qb.Estimates[name]
			if !ok || !e.Valid || e.Estimated == nil {
				return fmt.Errorf("estimator %q missing or invalid", name)
			}
		}
		if qb.Best == nil || qb.Best.Estimated == nil {
			return fmt.Errorf("no best estimate")
		}
	case "MEDIAN":
		if e, ok := qb.Estimates["median"]; !ok || !e.Valid || e.Estimated == nil {
			return fmt.Errorf("median estimate missing or invalid")
		}
	}
	return nil
}

func fmtPtr(p *float64) string {
	if p == nil {
		return "null"
	}
	return fmt.Sprint(*p)
}

// relErr is the open-world estimate's relative error against the
// population answer: best.estimated for SUM, the median estimate for
// MEDIAN. ok is false for other requests.
func (w *workload) relErr(r request, body []byte) (float64, bool) {
	if r.groupBy || (r.agg != "SUM" && r.agg != "MEDIAN") {
		return 0, false
	}
	var qb queryBody
	if json.Unmarshal(body, &qb) != nil {
		return 0, false
	}
	var est *float64
	if r.agg == "SUM" && qb.Best != nil {
		est = qb.Best.Estimated
	} else if e, ok := qb.Estimates["median"]; ok {
		est = e.Estimated
	}
	truth, ok := w.expected(r, nil)[""]
	if est == nil || !ok || truth == 0 {
		return 0, false
	}
	return math.Abs(*est-truth) / math.Abs(truth), true
}

// digest hashes the canonicalised reply bodies in request-ID order:
// every body is decoded and re-encoded with sorted keys, so two commits
// with identical Results print the same digest.
func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			h.Write(b)
		} else {
			canon, _ := json.Marshal(v)
			h.Write(canon)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
