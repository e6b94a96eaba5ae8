package cluster

import (
	"slices"
	"testing"
	"time"
)

// Experiment shape tests: run every figure at reduced operation counts
// and assert the paper's qualitative claims — who wins, roughly by how
// much, where the crossovers are. Absolute numbers live in
// EXPERIMENTS.md.

var testParams = Params{Ops: 25, Seed: 7}

func mustVal(t *testing.T, f *Figure, sys, x string) float64 {
	t.Helper()
	v, ok := f.SeriesValue(sys, x)
	if !ok {
		t.Fatalf("%s: missing %s @ %s", f.ID, sys, x)
	}
	return v
}

func TestFig4Shape(t *testing.T) {
	fig, err := Fig4RequestRouting(testParams)
	if err != nil {
		t.Fatal(err)
	}
	// NICE routing ~= RAC (both single hop); ROG and RAG pay extra hops
	// at small sizes; benefits shrink as transfer time dominates.
	nice := mustVal(t, fig, "NICE", "4B")
	rac := mustVal(t, fig, "NOOB+RAC", "4B")
	rag := mustVal(t, fig, "NOOB+RAG", "4B")
	rog := mustVal(t, fig, "NOOB+ROG", "4B")
	if nice > rac*1.25 || rac > nice*1.25 {
		t.Errorf("NICE (%.3g) and RAC (%.3g) should overlap", nice, rac)
	}
	if rog < 1.5*nice {
		t.Errorf("ROG (%.3g) should be ~2x NICE (%.3g) at 4B", rog, nice)
	}
	if rag < 1.2*nice || rag > rog {
		t.Errorf("RAG (%.3g) should sit between NICE (%.3g) and ROG (%.3g)", rag, nice, rog)
	}
	// Large objects: NICE still overlaps RAC (single-hop both ways).
	niceL := mustVal(t, fig, "NICE", "1MB")
	racL := mustVal(t, fig, "NOOB+RAC", "1MB")
	if niceL > racL*1.25 || racL > niceL*1.25 {
		t.Errorf("NICE (%.3g) and RAC (%.3g) should overlap at 1MB", niceL, racL)
	}
	// The replica streams its disk read into the reply (kvstore
	// streamRead): 8.94 ms, within 5 % of the 1 Gbps line-rate floor of
	// 1 MB (8.39 ms). Banded 8.39-9.4 ms, about 5 % above the measured
	// value; a replica that reads the whole object before replying lands
	// at 11.03 ms.
	if niceL < 8.39e-3 || niceL > 9.4e-3 {
		t.Errorf("NICE 1MB get = %.4g s, want 8.39-9.4 ms (streamed read)", niceL)
	}
}

func TestFig567Shapes(t *testing.T) {
	f5, f6, f7, err := ReplicationFigures(testParams)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 5: NICE beats every NOOB config at 1MB by >2x (paper: up to
	// 4.3x / 3.4x / 2.6x).
	nice := mustVal(t, f5, "NICE", "1MB")
	for _, sys := range []string{"NOOB+ROG", "NOOB+RAG", "NOOB+RAC"} {
		v := mustVal(t, f5, sys, "1MB")
		if v < 2*nice {
			t.Errorf("fig5: %s (%.4g) should be >2x NICE (%.4g) at 1MB", sys, v, nice)
		}
	}
	// The paper's headline, NOOB+ROG at 4.3x NICE, is reproduced: 4.29x
	// here, banded 4.1-4.5x (about 5 % either side). A multicast sender
	// that idles a round trip per window lands at 3.99x.
	if r := mustVal(t, f5, "NOOB+ROG", "1MB") / nice; r < 4.1 || r > 4.5 {
		t.Errorf("fig5: NOOB+ROG:NICE at 1MB = %.3g, want 4.1-4.5 (paper 4.3)", r)
	}
	// Fig 6: NICE moves the least bytes; RAC is ~R*S vs NICE ~(R+1)*S/2ish
	// (paper: 1.7x-3.5x reduction).
	niceLoad := mustVal(t, f6, "NICE", "1MB")
	racLoad := mustVal(t, f6, "NOOB+RAC", "1MB")
	rogLoad := mustVal(t, f6, "NOOB+ROG", "1MB")
	if racLoad < 1.4*niceLoad {
		t.Errorf("fig6: RAC load (%.4g) should be >1.4x NICE (%.4g)", racLoad, niceLoad)
	}
	if rogLoad < 2*niceLoad {
		t.Errorf("fig6: ROG load (%.4g) should be >2x NICE (%.4g)", rogLoad, niceLoad)
	}
	// Fig 7: NOOB primary does ~R x the secondary's work, NICE ~1x.
	niceRatio := mustVal(t, f7, "NICE", "1MB")
	racRatio := mustVal(t, f7, "NOOB+RAC", "1MB")
	if niceRatio > 1.2 {
		t.Errorf("fig7: NICE ratio = %.3g, want ~1", niceRatio)
	}
	if racRatio < 2.5 {
		t.Errorf("fig7: NOOB ratio = %.3g, want ~R=3", racRatio)
	}
}

func TestFig8Shape(t *testing.T) {
	pr := Params{Ops: 6, Seed: 7}
	figT, figBW, err := Fig8Quorum(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Small quorums dodge the slow replicas: NICE beats NOOB at k in
	// {1,3} (paper: up to 5.6x); both collapse at k in {5,7}. Measured
	// 2.66x and 3.94x; each floor sits about 4 % below, where a multicast
	// sender that idles a round trip per window (2.47x, 3.66x) fails, and
	// the paper's 5.6x is the ceiling.
	for _, c := range []struct {
		k     string
		floor float64
	}{{"1", 2.55}, {"3", 3.8}} {
		nice := mustVal(t, figT, "NICE", c.k)
		noob := mustVal(t, figT, "NOOB", c.k)
		if r := noob / nice; r < c.floor || r > 5.6 {
			t.Errorf("fig8 k=%s: NOOB (%.4g) is %.3gx NICE (%.4g), want %.3g-5.6x", c.k, noob, r, nice, c.floor)
		}
	}
	nice1 := mustVal(t, figT, "NICE", "1")
	nice5 := mustVal(t, figT, "NICE", "5")
	if nice5 < 5*nice1 {
		t.Errorf("fig8: k=5 (%.4g) must hit the slow replicas (k=1: %.4g)", nice5, nice1)
	}
	// Bandwidth view is the inverse ordering.
	if bw1, _ := figBW.SeriesValue("NICE", "1"); bw1 < 50 {
		t.Errorf("fig8b: NICE k=1 bandwidth %.3g MB/s too low", bw1)
	}
}

func TestFig9Shape(t *testing.T) {
	figs, err := Fig9Consistency(Params{Ops: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	small, large := figs[4], figs[1<<20]
	// 4B: NICE ~ primary-only; 2PC pays protocol overhead.
	nice := mustVal(t, small, "NICE", "3")
	prim := mustVal(t, small, "NOOB primary-only", "3")
	twopc := mustVal(t, small, "NOOB 2PC", "3")
	if nice > 1.6*prim {
		t.Errorf("fig9 4B: NICE (%.4g) should be comparable to primary-only (%.4g)", nice, prim)
	}
	if twopc < prim {
		t.Errorf("fig9 4B: 2PC (%.4g) should cost more than primary-only (%.4g)", twopc, prim)
	}
	// R = 1 has nothing to replicate, and every system forces a put's
	// object once (a prepare's WAL record carries it): the three put a 4 B
	// object within 2 % of each other.
	r1 := []float64{mustVal(t, small, "NICE", "1"), mustVal(t, small, "NOOB primary-only", "1"),
		mustVal(t, small, "NOOB 2PC", "1")}
	if lo, hi := slices.Min(r1), slices.Max(r1); hi > 1.02*lo {
		t.Errorf("fig9 4B R=1: puts span %.4g-%.4g (%.3gx), want within 2 %%", lo, hi, hi/lo)
	}
	// 1MB: NOOB degrades steeply with R (paper ~7x from R=1 to 9); NICE
	// degrades only slightly (paper 17%).
	noob1 := mustVal(t, large, "NOOB primary-only", "1")
	noob9 := mustVal(t, large, "NOOB primary-only", "9")
	if noob9 < 4*noob1 {
		t.Errorf("fig9 1MB: NOOB should degrade >4x from R=1 (%.4g) to R=9 (%.4g)", noob1, noob9)
	}
	nice1 := mustVal(t, large, "NICE", "1")
	nice9 := mustVal(t, large, "NICE", "9")
	if nice9 > 1.3*nice1 {
		t.Errorf("fig9 1MB: NICE degraded %.2fx from R=1 to 9; want ~flat", nice9/nice1)
	}
	if noob9 < 3*nice9 {
		t.Errorf("fig9 1MB R=9: NOOB (%.4g) should be >3x NICE (%.4g)", noob9, nice9)
	}
}

func TestFig10Shape(t *testing.T) {
	figs, err := Fig10LoadBalancing(Params{Ops: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	large := figs[1<<20]
	// Weak scaling at 1MB: NICE stays flat; NOOB primary-only degrades
	// with every added client+replica (paper 3.5x at 1MB); NICE ends up
	// far ahead (paper up to 7.5x).
	nice3 := mustVal(t, large, "NICE", "3")
	nice9 := mustVal(t, large, "NICE", "9")
	if nice9 > 1.3*nice3 {
		t.Errorf("fig10 1MB: NICE not weakly scalable: %.4g -> %.4g", nice3, nice9)
	}
	prim3 := mustVal(t, large, "NOOB primary-only", "3")
	prim9 := mustVal(t, large, "NOOB primary-only", "9")
	if prim9 < 2*prim3 {
		t.Errorf("fig10 1MB: NOOB primary-only should degrade >2x: %.4g -> %.4g", prim3, prim9)
	}
	if prim9 < 4*nice9 {
		t.Errorf("fig10 1MB R=9: NOOB primary-only (%.4g) should be >4x NICE (%.4g)", prim9, nice9)
	}
	small := figs[4]
	sprim3 := mustVal(t, small, "NOOB primary-only", "3")
	sprim9 := mustVal(t, small, "NOOB primary-only", "9")
	if sprim9 <= sprim3 {
		t.Errorf("fig10 4B: NOOB primary-only should degrade: %.4g -> %.4g", sprim3, sprim9)
	}
}

func TestFig11Shape(t *testing.T) {
	fp := DefaultFTParams()
	fp.Duration = 60 * time.Second
	fp.FailAt = 15 * time.Second
	fp.RejoinAt = 40 * time.Second
	fp.ThinkTime = 10 * time.Millisecond
	res, err := Fig11FaultTolerance(fp)
	if err != nil {
		t.Fatal(err)
	}
	rate := func(v []float64, i int) float64 {
		if i < len(v) {
			return v[i]
		}
		return 0
	}
	// Steady state before the failure.
	if rate(res.PutRate, 10) == 0 || rate(res.GetRate, 10) == 0 {
		t.Fatal("no steady-state traffic before the failure")
	}
	// Put availability dips within ~2s of the failure...
	dip := rate(res.PutRate, 15) + rate(res.PutRate, 16)
	steady := rate(res.PutRate, 10) + rate(res.PutRate, 11)
	if dip > steady/2 {
		t.Errorf("no visible put dip at failure: dip=%v steady=%v", dip, steady)
	}
	// ...and recovers before the rejoin.
	if rate(res.PutRate, 25) < rate(res.PutRate, 10)/2 {
		t.Errorf("puts did not recover after handoff: %v", res.PutRate[20:30])
	}
	// After rejoin everything still flows.
	if rate(res.PutRate, 50) == 0 || rate(res.GetRate, 50) == 0 {
		t.Error("traffic did not survive the rejoin")
	}
	// The controller observed exactly one failure and one recovery.
	foundFail, foundRecover := false, false
	for _, e := range res.Events {
		if contains(e, "handoff") {
			foundFail = true
		}
		if contains(e, "consistent") {
			foundRecover = true
		}
	}
	if !foundFail || !foundRecover {
		t.Errorf("membership events missing: %v", res.Events)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestFig12Shape(t *testing.T) {
	fig, err := Fig12YCSB(Params{Ops: 300, Seed: 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Workload F: the 2PC baseline pays two protocol rounds per write;
	// NICE must beat it (paper: 1.5x).
	niceF := mustVal(t, fig, "NICE", "F")
	twopcF := mustVal(t, fig, "NOOB 2PC", "F")
	if niceF < 1.2*twopcF {
		t.Errorf("fig12 F: NICE (%.4g ops/s) should be >1.2x 2PC (%.4g)", niceF, twopcF)
	}
	// Workload C: read-only; all systems deliver solid throughput and
	// NICE is at least on par with 2PC.
	niceC := mustVal(t, fig, "NICE", "C")
	twopcC := mustVal(t, fig, "NOOB 2PC", "C")
	if niceC < 0.9*twopcC {
		t.Errorf("fig12 C: NICE (%.4g) should not trail 2PC (%.4g)", niceC, twopcC)
	}
}

func TestScalabilityTables(t *testing.T) {
	sw, err := SwitchScalabilityTable()
	if err != nil {
		t.Fatal(err)
	}
	if v := mustVal(t, sw, "entries/partition", "no LB"); v != 2 {
		t.Errorf("entries/partition without LB = %v, want 2 (§4.6)", v)
	}
	if v := mustVal(t, sw, "max nodes @128K", "no LB"); v != 65536 {
		t.Errorf("max nodes = %v, want 64K (§4.6)", v)
	}
	mem, err := MembershipScalabilityTable()
	if err != nil {
		t.Fatal(err)
	}
	// NICE cost flat in N; NOOB cost = N.
	n5 := mustVal(t, mem, "NICE node msgs", "5")
	n30 := mustVal(t, mem, "NICE node msgs", "30")
	if n5 != n30 {
		t.Errorf("NICE membership cost grew with N: %v -> %v", n5, n30)
	}
	if v := mustVal(t, mem, "NOOB msgs (full membership)", "30"); v != 30 {
		t.Errorf("NOOB messages = %v, want 30", v)
	}
}

func TestExtendedExperiments(t *testing.T) {
	ycsb, err := YCSBAllWorkloads(Params{Ops: 150, Seed: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"A", "B", "C", "D", "F"} {
		for _, sys := range []string{"NICE", "NOOB primary-only", "NOOB 2PC"} {
			if v, ok := ycsb.SeriesValue(sys, wl); !ok || v <= 0 {
				t.Errorf("ycsb-all: missing %s @ %s", sys, wl)
			}
		}
	}

	scale, err := ScaleOutThroughput(Params{Ops: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// NICE weak-scales: throughput grows with the cluster. The
	// gateway-routed NOOB saturates its single gateway.
	n6, _ := scale.SeriesValue("NICE", "6")
	n24, _ := scale.SeriesValue("NICE", "24")
	if n24 < 2.5*n6 {
		t.Errorf("scale-out: NICE did not scale: %v -> %v", n6, n24)
	}
	g6, _ := scale.SeriesValue("NOOB+RAG (gateway)", "6")
	g24, _ := scale.SeriesValue("NOOB+RAG (gateway)", "24")
	if g24/g6 > 0.75*(n24/n6) {
		t.Errorf("scale-out: gateway NOOB scaled as well as NICE (%.2fx vs %.2fx)", g24/g6, n24/n6)
	}

	fab, err := FabricComparison(Params{Ops: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, fabric := range []string{"single-switch", "edge-ovs", "leaf-spine(3)"} {
		pv, ok := fab.SeriesValue("put", fabric)
		if !ok || pv <= 0 {
			t.Errorf("fabric comparison missing put @ %s", fabric)
		}
	}
	// Multi-switch adds hops but must stay in the same ballpark.
	ss, _ := fab.SeriesValue("put", "single-switch")
	ls, _ := fab.SeriesValue("put", "leaf-spine(3)")
	if ls > 2*ss {
		t.Errorf("leaf-spine put (%.4g) should be <2x single switch (%.4g)", ls, ss)
	}
}

// TestAblationShapes runs the four ablations at full size and asserts
// what each one is for (the values are in EXPERIMENTS.md "Ablations").
func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size ablations; the registry smoke runs them reduced")
	}
	figs, err := Ablations(Params{Ops: ablDynGets, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*Figure)
	for _, f := range figs {
		byID[f.ID] = f
	}
	// One 1 MB put: the switch fans out once; unicast serialises R-1
	// copies on the primary's link; the chain adds a store-and-forward hop.
	rep := byID["abl-replication"]
	mc, uni, chain := mustVal(t, rep, "multicast", "1MB"), mustVal(t, rep, "unicast", "1MB"), mustVal(t, rep, "chain", "1MB")
	if !(mc < uni && uni < chain) {
		t.Errorf("abl-replication: want multicast < unicast < chain, got %.4g / %.4g / %.4g", mc, uni, chain)
	}
	// §5.1: the client-edge workaround costs a software hop, a few percent.
	edge := byID["abl-edgeovs"]
	hw, ovs := mustVal(t, edge, "hw-rewrite", "64KB"), mustVal(t, edge, "edge-ovs", "64KB")
	if over := (ovs - hw) / hw; over <= 0 || over >= 0.10 {
		t.Errorf("abl-edgeovs: overhead = %.2f%%, want inside (0, 10%%)", over*100)
	}
	lb := byID["abl-lb"]
	if on, off := mustVal(t, lb, "lb-on", "makespan"), mustVal(t, lb, "lb-off", "makespan"); off < 1.5*on {
		t.Errorf("abl-lb: makespan %.4g with the division rules, %.4g without: want > 1.5x", on, off)
	}
	dyn := byID["abl-dynamiclb"]
	if d, s := mustVal(t, dyn, "dynamic", "get"), mustVal(t, dyn, "static", "get"); d <= 0 || s < 1.2*d {
		t.Errorf("abl-dynamiclb: mean get %.4g dynamic, %.4g static: want > 1.2x under the two-heavy-clients skew", d, s)
	}
}
