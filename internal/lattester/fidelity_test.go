package lattester

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFidelity measures every catalog point at three seeds and checks its
// window and the cross-checks between points, then checks that README's
// catalog table is the seed-1 rendering.
func TestFidelity(t *testing.T) {
	points := Catalog()
	var table string
	for _, seed := range []uint64{1, 2, 3} {
		got := make(map[string]Reading, len(points))
		values := make([]float64, len(points))
		for i := range points {
			pt := &points[i]
			r := pt.Measure(seed)
			got[pt.Name], values[i] = r, r.Value
			t.Logf("seed %d: %-18s %8.4g %-6s paper %-5g %-12s %5.2f %%  %s", seed, pt.Name, r.Value, pt.Unit, pt.Paper, pt.Window(), pt.ErrPct(r.Value), pt.How)
			if !pt.In(r.Value) {
				t.Errorf("seed %d: %s = %.4g, outside %s (paper %g, %s)", seed, pt.Name, r.Value, pt.Window(), pt.Paper, pt.Source)
			}
		}
		crossChecks(t, seed, got)
		if seed == 1 {
			table = fidelityTable(points, values)
		}
	}
	checkReadme(t, table)
}

// inWindow fails t when v is outside the window of the catalog point
// called name.
func inWindow(t *testing.T, name string, v float64) {
	t.Helper()
	for _, pt := range Catalog() {
		if pt.Name == name {
			if !pt.In(v) {
				t.Errorf("%s = %.4g, outside %s (paper %g, %s)", name, v, pt.Window(), pt.Paper, pt.Source)
			}
			return
		}
	}
	t.Fatalf("no catalog point %q", name)
}

// crossChecks are the catalog's claims that relate two readings or read a
// call's other outputs.
func crossChecks(t *testing.T, seed uint64, got map[string]Reading) {
	t.Helper()
	check := func(ok bool, format string, args ...any) {
		if !ok {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
		}
	}
	dSeq, dRand := got["dram_seq_read_ns"].Value, got["dram_rand_read_ns"].Value
	check(dRand > dSeq, "DRAM random idle read (%.1f ns) must be slower than sequential (%.1f ns)", dRand, dSeq)
	nt, clwb := got["ntstore_ns"].Value, got["store_clwb_ns"].Value
	check(nt >= clwb, "Optane 64 B ntstore (%.1f ns) must cost at least store+clwb (%.1f ns)", nt, clwb)
	// Sequential reads alternate XPLine misses and hits (§3.2), so their
	// spread exceeds random reads'.
	seqStd, randStd := got["idle_seq_read_ns"].Std, got["idle_rand_read_ns"].Std
	check(seqStd > randStd, "Optane seq read std (%.1f) must exceed rand read std (%.1f)", seqStd, randStd)
	read, write := got["ni_read_gbs"], got["ni_ntstore_gbs"]
	ratio := read.Value / write.Value
	check(ratio >= 2 && ratio <= 4, "single-DIMM read/write bandwidth ratio = %.2f, want [2, 4] (paper 2.9)", ratio)
	check(write.EWR >= 0.95, "sequential single-DIMM ntstore EWR = %.3f, want >= 0.95", write.EWR)
	small, line := got["ewr_rand64"].GBs, got["ewr_rand256"].GBs
	check(small <= 0.6*line, "random 64 B ntstore (%.2f GB/s) must be at most 0.6x random 256 B (%.2f GB/s)", small, line)
}

// fidelityTable renders the catalog's README table for one seed's values.
func fidelityTable(points []Point, values []float64) string {
	var b strings.Builder
	b.WriteString("| Point | Source | Simulated | Paper | Window | Error |\n")
	b.WriteString("| --- | --- | ---: | ---: | --- | ---: |\n")
	var sum float64
	for i := range points {
		pt := &points[i]
		e := pt.ErrPct(values[i])
		sum += e
		fmt.Fprintf(&b, "| `%s` | %s | %.4g | %g | %s | %.2f %% |\n", pt.Name, pt.Source, values[i], pt.Paper, pt.Window(), e)
	}
	fmt.Fprintf(&b, "\nMean error over the %d points: %.2f %%.\n", len(points), sum/float64(len(points)))
	return b.String()
}

const (
	tableBegin = "<!-- fidelity catalog: begin -->\n"
	tableEnd   = "<!-- fidelity catalog: end -->\n"
)

// checkReadme fails, printing the expected block, when README's catalog
// table is not table.
func checkReadme(t *testing.T, table string) {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	i, j := strings.Index(readme, tableBegin), strings.Index(readme, tableEnd)
	if i < 0 || j < i || readme[i+len(tableBegin):j] != table {
		t.Errorf("README.md's catalog table is missing or stale; its block should read:\n%s%s%s", tableBegin, table, tableEnd)
	}
}
