package experiments

import (
	"reflect"
	"strings"
	"testing"
)

func runEX6Reduced(t *testing.T, seed uint64) EX6Result {
	t.Helper()
	res, err := RunEX6(EX6Config{Seed: seed}.Reduced())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEX6Reduced checks the experiment's headline claims: resilient
// routing rides out a throttle storm that guts the bounded-retry baseline,
// and an outage is survivable only with breaker + failover.
func TestEX6Reduced(t *testing.T) {
	res := runEX6Reduced(t, 42)
	if len(res.Cells) != len(EX6Scenarios())*len(DefaultEX6Arms()) {
		t.Fatalf("cells = %d", len(res.Cells))
	}

	cell := func(scenario, arm string) EX6Cell {
		c, ok := res.Cell(scenario, arm)
		if !ok {
			t.Fatalf("missing cell %s/%s", scenario, arm)
		}
		return c
	}

	// Calm: every policy completes everything; nothing fails over.
	for _, arm := range DefaultEX6Arms() {
		c := cell("calm", arm.Label)
		if c.SuccessRate != 1 || c.Failovers != 0 {
			t.Errorf("calm/%s: success %.2f failovers %d", arm.Label, c.SuccessRate, c.Failovers)
		}
	}

	// Throttle storm: the acceptance thresholds.
	base := cell("throttle-storm", "baseline")
	if base.SuccessRate >= 0.60 {
		t.Errorf("baseline under storm = %.1f%%, want < 60%%", base.SuccessRate*100)
	}
	breaker := cell("throttle-storm", "hybrid+breaker")
	if breaker.SuccessRate < 0.95 {
		t.Errorf("hybrid+breaker under storm = %.1f%%, want >= 95%%", breaker.SuccessRate*100)
	}
	if breaker.Failovers == 0 {
		t.Error("breaker arm never failed over under the storm")
	}
	if breaker.AZ == breaker.TargetAZ {
		t.Errorf("breaker arm finished on the stormed zone %s", breaker.AZ)
	}

	// Outage: without failover nothing survives; with it everything does.
	if c := cell("zone-outage", "baseline"); c.SuccessRate != 0 {
		t.Errorf("baseline under outage = %.2f, want 0", c.SuccessRate)
	}
	if c := cell("zone-outage", "hybrid+breaker"); c.SuccessRate < 0.95 {
		t.Errorf("hybrid+breaker under outage = %.2f", c.SuccessRate)
	}

	// The hedging arm actually hedges.
	if c := cell("calm", "hybrid+hedge"); c.Hedges == 0 {
		t.Error("hedge arm armed no hedges")
	}

	// Render mentions every scenario and the headline comparison.
	out := res.Render()
	for _, scenario := range EX6Scenarios() {
		if !strings.Contains(out, "scenario "+scenario) {
			t.Errorf("render missing scenario %s", scenario)
		}
	}
	if !strings.Contains(out, "headline") {
		t.Error("render missing the headline comparison")
	}
}

// TestEX6Determinism: two same-seed runs must agree bit for bit — the
// acceptance criterion for the whole chaos layer. Seed 7 is one the
// registry golden does not pin.
func TestEX6Determinism(t *testing.T) {
	a, b := runEX6Reduced(t, 7), runEX6Reduced(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed EX-6 diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestEX6CSV: the dataset holds the header and one row per cell, in cell
// order, at a seed the registry golden does not pin.
func TestEX6CSV(t *testing.T) {
	res := runEX6Reduced(t, 7)
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	rows := csvLines(t, dir, "ex6_resilience.csv", len(res.Cells))
	if !strings.HasPrefix(rows[0], "scenario,arm,target_az,final_az,success_rate,") {
		t.Errorf("header: %q", rows[0])
	}
	for i, c := range res.Cells {
		if want := c.Scenario + "," + c.Arm + ","; !strings.HasPrefix(rows[i+1], want) {
			t.Errorf("row %d = %q, want prefix %q", i+1, rows[i+1], want)
		}
	}
}
