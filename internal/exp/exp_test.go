package exp

import (
	"strings"
	"testing"

	"matchsim/internal/core"
	"matchsim/internal/ga"
)

// smallSweep returns a sweep config fast enough for unit tests.
func smallSweep() SweepConfig {
	return SweepConfig{
		Sizes:   []int{6, 8},
		Repeats: 2,
		Seed:    1,
		GA:      ga.Options{PopulationSize: 30, Generations: 30},
		MaTCH:   core.Options{MaxIterations: 25},
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bee"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.Render()
	for _, want := range []string{"T\n", "a    bee", "333  4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("1,x", `say "hi"`)
	out := tb.CSV()
	if !strings.Contains(out, `"1,x"`) || !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("CSV quoting wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("CSV header wrong:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("chart", []string{"n=10", "n=20"},
		[]string{"GA", "MaTCH"}, [][]float64{{100, 200}, {10, 20}}, 40)
	if !strings.Contains(out, "chart") || !strings.Contains(out, "n=20") {
		t.Fatalf("chart missing parts:\n%s", out)
	}
	// The largest value gets the full width of bars.
	if !strings.Contains(out, strings.Repeat("#", 40)) {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	// Tiny positive values still render one glyph.
	tiny := BarChart("", []string{"x"}, []string{"s"}, [][]float64{{0.0001}}, 40)
	if !strings.Contains(tiny, "#") {
		t.Fatalf("tiny bar lost:\n%s", tiny)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		1234:   "1234",
		0.5:    "0.5",
		123.45: "123.5",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestRunSweepShape(t *testing.T) {
	res, err := RunSweep(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != 2 || len(res.GA) != 2 || len(res.MaTCH) != 2 {
		t.Fatalf("sweep shape: %+v", res)
	}
	for i := range res.Sizes {
		if res.GA[i].ET <= 0 || res.MaTCH[i].ET <= 0 {
			t.Fatalf("non-positive ET at %d", i)
		}
		if res.GA[i].MT <= 0 || res.MaTCH[i].MT <= 0 {
			t.Fatalf("non-positive MT at %d", i)
		}
		if len(res.GA[i].PerRunET) != 2 {
			t.Fatalf("per-run records missing at %d", i)
		}
		if res.ETRatio(i) <= 0 || res.MTRatio(i) <= 0 {
			t.Fatalf("ratios wrong at %d", i)
		}
	}
}

func TestRenderTables1And2AndFigs(t *testing.T) {
	res, err := RunSweep(smallSweep())
	if err != nil {
		t.Fatal(err)
	}
	t1 := RenderTable1(res).Render()
	if !strings.Contains(t1, "Table 1") || !strings.Contains(t1, "ET_GA / ET_MaTCH") {
		t.Fatalf("Table 1 malformed:\n%s", t1)
	}
	t2 := RenderTable2(res).Render()
	if !strings.Contains(t2, "Table 2") || !strings.Contains(t2, "MT_MaTCH / MT_GA") {
		t.Fatalf("Table 2 malformed:\n%s", t2)
	}
	for _, fig := range []string{RenderFig7(res), RenderFig8(res), RenderFig9(res)} {
		if !strings.Contains(fig, "n=6") || !strings.Contains(fig, "MaTCH") {
			t.Fatalf("figure malformed:\n%s", fig)
		}
	}
	if !strings.Contains(RenderFig9(res), "Turnaround") {
		t.Fatal("Fig 9 missing title")
	}
}

func TestSweepProgressWriter(t *testing.T) {
	cfg := smallSweep()
	var buf strings.Builder
	cfg.Progress = &buf
	if _, err := RunSweep(cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n=6") {
		t.Fatalf("progress output missing:\n%s", buf.String())
	}
}

func TestRunANOVASmall(t *testing.T) {
	res, err := RunANOVA(ANOVAConfig{
		Size:       8,
		Runs:       6,
		Seed:       2,
		GASmallPop: ga.Options{PopulationSize: 20, Generations: 60},
		GALargePop: ga.Options{PopulationSize: 60, Generations: 20},
		MaTCH:      core.Options{MaxIterations: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 3 {
		t.Fatalf("arm count %d", len(res.Arms))
	}
	if res.Arms[0].Name != "MaTCH" {
		t.Fatalf("first arm %q", res.Arms[0].Name)
	}
	for _, arm := range res.Arms {
		if len(arm.Execs) != 6 {
			t.Fatalf("%s has %d runs", arm.Name, len(arm.Execs))
		}
		if arm.Summary.Mean <= 0 {
			t.Fatalf("%s mean %v", arm.Name, arm.Summary.Mean)
		}
	}
	if res.ANOVA.DFBetween != 2 || res.ANOVA.DFWithin != 15 {
		t.Fatalf("ANOVA df: %+v", res.ANOVA)
	}
	desc, an := RenderTable3(res)
	if !strings.Contains(desc.Render(), "MaTCH") {
		t.Fatal("Table 3 descriptive block malformed")
	}
	if !strings.Contains(an.Render(), "F value") {
		t.Fatal("Table 3 ANOVA block malformed")
	}
}

func TestRunFig3(t *testing.T) {
	res, err := RunFig3(Fig3Config{Size: 6, Seed: 3, SnapshotEvery: 2, MaTCH: core.Options{MaxIterations: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Run.Snapshots) < 2 || len(res.Entropies) != len(res.Run.Snapshots) {
		t.Fatalf("snapshots/entropies: %d/%d", len(res.Run.Snapshots), len(res.Entropies))
	}
	// Entropy must trend down from start to finish.
	if res.Entropies[len(res.Entropies)-1] >= res.Entropies[0] {
		t.Fatalf("entropy did not decrease: %v", res.Entropies)
	}
	out := RenderFig3(res)
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "iteration 0") {
		t.Fatalf("Fig 3 rendering malformed:\n%s", out)
	}
}

func TestAblationsRunSmall(t *testing.T) {
	cfg := AblationConfig{Size: 8, Repeats: 1, Seed: 4, MaxIterations: 15}
	rho, err := AblateRho(cfg, []float64{0.05, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rho.Rows) != 2 {
		t.Fatalf("rho rows %d", len(rho.Rows))
	}
	zeta, err := AblateZeta(cfg, []float64{0.3, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(zeta.Rows) != 2 {
		t.Fatalf("zeta rows %d", len(zeta.Rows))
	}
	ss, err := AblateSampleSize(cfg, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Rows) != 2 {
		t.Fatalf("sample size rows %d", len(ss.Rows))
	}
	w, err := AblateWorkers(cfg, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Rows) != 2 {
		t.Fatalf("worker rows %d", len(w.Rows))
	}
	if !strings.Contains(w.Render(), "speedup") {
		t.Fatal("workers table missing speedup column")
	}
}

func TestCompareBaselinesSmall(t *testing.T) {
	cfg := AblationConfig{Size: 8, Repeats: 1, Seed: 5, MaxIterations: 15}
	tb, err := CompareBaselines(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, solver := range []string{"MaTCH", "MaTCH-distributed", "FastMap-GA", "RandomSearch", "Greedy", "LocalSearch", "SimulatedAnnealing"} {
		if !strings.Contains(out, solver) {
			t.Fatalf("baseline table missing %s:\n%s", solver, out)
		}
	}
}

func TestATN(t *testing.T) {
	cell := SweepCell{ET: 1000, MT: 2 * 1e9} // 2 seconds
	if got := ATN(cell, 1000); got != 3000 {
		t.Fatalf("ATN = %v, want 3000", got)
	}
}

func TestAblateSelectionSmall(t *testing.T) {
	tb, err := AblateSelection(AblationConfig{Size: 8, Repeats: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	if !strings.Contains(out, "roulette") || !strings.Contains(out, "tournament") {
		t.Fatalf("selection ablation malformed:\n%s", out)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
}

func TestAblateWarmStartSmall(t *testing.T) {
	tb, err := AblateWarmStart(AblationConfig{Size: 10, Repeats: 2, Seed: 7, MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	if !strings.Contains(out, "uniform P0") || !strings.Contains(out, "greedy-seeded") {
		t.Fatalf("warm start ablation malformed:\n%s", out)
	}
}

func TestOversetSweepSmall(t *testing.T) {
	res, err := OversetSweep(8, []int{6, 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != 2 || len(res.GA) != 2 || len(res.MaTCH) != 2 {
		t.Fatalf("sweep shape wrong")
	}
	for i := range res.Sizes {
		if res.GA[i].ET <= 0 || res.MaTCH[i].ET <= 0 {
			t.Fatalf("non-positive ET at %d", i)
		}
	}
	out := RenderOversetSweep(res).Render()
	if !strings.Contains(out, "overset-grid") || !strings.Contains(out, "ET_GA / ET_MaTCH") {
		t.Fatalf("overset sweep table malformed:\n%s", out)
	}
}

func TestLineChartAndConvergence(t *testing.T) {
	chart := LineChart("conv", []string{"a", "b"},
		[][]float64{{10, 8, 6, 4, 2}, {10, 9, 8, 7, 6}}, 40, 8)
	if !strings.Contains(chart, "conv") || !strings.Contains(chart, "*") || !strings.Contains(chart, "+") {
		t.Fatalf("line chart malformed:\n%s", chart)
	}
	if !strings.Contains(chart, "10") || !strings.Contains(chart, "2") {
		t.Fatalf("axis labels missing:\n%s", chart)
	}
	empty := LineChart("e", nil, nil, 10, 5)
	if !strings.Contains(empty, "no data") {
		t.Fatalf("empty chart: %q", empty)
	}
	flat := LineChart("f", []string{"s"}, [][]float64{{5, 5, 5}}, 10, 5)
	if !strings.Contains(flat, "*") {
		t.Fatalf("flat series lost:\n%s", flat)
	}
}

func TestRenderConvergenceAndHistoryCSV(t *testing.T) {
	res, err := RunFig3(Fig3Config{Size: 6, Seed: 9, MaTCH: core.Options{MaxIterations: 20}})
	if err != nil {
		t.Fatal(err)
	}
	chart := RenderConvergence("MaTCH convergence", res.Run.History)
	if !strings.Contains(chart, "gamma_k") || !strings.Contains(chart, "best-so-far") {
		t.Fatalf("convergence chart malformed:\n%s", chart)
	}
	csv := HistoryCSV(res.Run.History)
	if !strings.HasPrefix(csv, "iter,gamma,best,") {
		t.Fatalf("history CSV header: %q", csv[:40])
	}
	lines := strings.Count(csv, "\n")
	if lines != len(res.Run.History)+1 {
		t.Fatalf("CSV rows %d for %d iterations", lines, len(res.Run.History))
	}
}

func TestRunScalingSmall(t *testing.T) {
	res, err := RunScaling(11, []int{6, 9, 12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MatchMT) != 3 || len(res.GAMT) != 3 {
		t.Fatalf("scaling shape wrong")
	}
	// CE cost grows superlinearly; with N = 2n^2 the exponent must be
	// positive and should exceed the GA's.
	if res.MatchExponent <= 0 {
		t.Fatalf("MaTCH exponent %v", res.MatchExponent)
	}
	out := RenderScaling(res).Render()
	if !strings.Contains(out, "exponent k") || !strings.Contains(out, "MT_MaTCH") {
		t.Fatalf("scaling table malformed:\n%s", out)
	}
}

func TestRenderPostHoc(t *testing.T) {
	res, err := RunANOVA(ANOVAConfig{
		Size: 8, Runs: 5, Seed: 3,
		GASmallPop: ga.Options{PopulationSize: 20, Generations: 40},
		GALargePop: ga.Options{PopulationSize: 40, Generations: 20},
		MaTCH:      core.Options{MaxIterations: 25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PostHoc) != 3 {
		t.Fatalf("post-hoc pairs %d, want 3", len(res.PostHoc))
	}
	out := RenderPostHoc(res).Render()
	if !strings.Contains(out, "MaTCH vs FastMap-GA") || !strings.Contains(out, "Bonferroni") {
		t.Fatalf("post-hoc table malformed:\n%s", out)
	}
}

func TestRunSimCheckSmall(t *testing.T) {
	res, err := RunSimCheck(12, []int{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RandomRatio) != 2 || len(res.MatchRatio) != 2 {
		t.Fatal("simcheck shape wrong")
	}
	for i := range res.Sizes {
		if res.RandomRatio[i] < 1-1e-9 || res.MatchRatio[i] < 1-1e-9 {
			t.Fatalf("model ratio below 1 at %d: %v / %v", i, res.RandomRatio[i], res.MatchRatio[i])
		}
		if res.RandomRatio[i] > 3 || res.MatchRatio[i] > 3 {
			t.Fatalf("model ratio implausible at %d", i)
		}
		if res.RandomIdle[i] < 0 || res.RandomIdle[i] >= 1 {
			t.Fatalf("idle fraction %v", res.RandomIdle[i])
		}
	}
	out := RenderSimCheck(res).Render()
	if !strings.Contains(out, "Model validation") || !strings.Contains(out, "ratio (MaTCH map)") {
		t.Fatalf("simcheck table malformed:\n%s", out)
	}
}
