package experiments

import "testing"

func TestDecimalAccuracyTaperedPrecision(t *testing.T) {
	rows, tab := DecimalAccuracy(3000)
	if tab.Len() != len(rows) || len(rows) == 0 {
		t.Fatal("empty")
	}
	byName := map[string]DecimalAccuracyRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	p0 := byName["posit(8,0)"]
	f4 := byName["float(8: we=4,wf=3)"]
	fx := byName["fixed(8,q=4)"]
	// Tapered precision: posit(8,0) beats the 8-bit float near 1 (it
	// spends no bits on exponent there).
	if p0.MeanDigitsNear1 <= f4.MeanDigitsNear1 {
		t.Errorf("posit(8,0) near-1 digits %.2f <= float %.2f",
			p0.MeanDigitsNear1, f4.MeanDigitsNear1)
	}
	// Fixed point has no relative-error guarantee: its worst digits near
	// 1 must be far below both.
	if fx.WorstDigitsNear1 >= p0.WorstDigitsNear1 {
		t.Errorf("fixed worst %.2f >= posit worst %.2f", fx.WorstDigitsNear1, p0.WorstDigitsNear1)
	}
	// On the wide range, fixed fails (saturates/flushes) on a large
	// fraction; posit(8,2) fails on none (its range covers 1e-3..1e3).
	p2 := byName["posit(8,2)"]
	if p2.FailFracWide > 0.01 {
		t.Errorf("posit(8,2) wide failure rate %.3f", p2.FailFracWide)
	}
	if fx.FailFracWide < 0.3 {
		t.Errorf("fixed wide failure rate only %.3f", fx.FailFracWide)
	}
	t.Logf("\n%s", tab)
}

func TestNetworkReports(t *testing.T) {
	rows, tab := NetworkReports()
	if len(rows) != 9 { // 3 datasets × 3 families
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Report.FitsVirtex7() {
			t.Errorf("%s/%s does not fit the paper's device", r.Dataset, r.Report.EMAC.Name)
		}
		if r.Report.LatencyNs <= 0 || r.Report.ThroughputKIPS <= 0 {
			t.Errorf("%s/%s degenerate costs", r.Dataset, r.Report.EMAC.Name)
		}
	}
	// Mushroom (117-32-2) must be the largest instance per family.
	var mush, iris float64
	for _, r := range rows {
		if r.Report.EMAC.Family != "posit" {
			continue
		}
		switch r.Dataset {
		case "Mushroom":
			mush = r.Report.TotalLUTs
		case "Iris":
			iris = r.Report.TotalLUTs
		}
	}
	if mush <= iris {
		t.Error("mushroom instance should outweigh iris")
	}
	// Rows come out in a fixed order: per dataset, fixed, float, posit.
	for i, r := range rows {
		if want := families[i%len(families)]; r.Report.EMAC.Family != want {
			t.Errorf("row %d (%s): family %s, want %s", i, r.Dataset, r.Report.EMAC.Family, want)
		}
	}
	if _, again := NetworkReports(); again.String() != tab.String() {
		t.Errorf("two calls render different tables:\n%s\n%s", tab, again)
	}
	t.Logf("\n%s", tab)
}
