package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestChaosSmoke is the CI-sized chaos sweep: a few fixed-seed schedules
// per system, zero invariant violations expected. The full experiment
// (`nicebench -experiment chaos`) runs 50 schedules per system; this
// keeps the same machinery honest under -race on every push.
func TestChaosSmoke(t *testing.T) {
	const schedules = 4
	rep, err := RunChaos(Params{Seed: 42}, schedules, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Violating() {
		t.Errorf("violations, repro: %s", c.Repro())
		for _, v := range c.Violations {
			t.Logf("    %s", v)
		}
	}
	if !rep.DeterminismOK {
		t.Errorf("determinism recheck failed: %v", rep.Mismatches)
	}
	for i := range rep.Cells {
		if rep.Cells[i].Ops == 0 {
			t.Errorf("cell %d (%s) recorded no operations", i, rep.Cells[i].Repro())
		}
	}
}

// TestChaosDeterminism: the same (system, schedule) cell must replay to
// an identical history, and the parallel sweep must agree cell-by-cell
// with the sequential one.
func TestChaosDeterminism(t *testing.T) {
	sys := chaosSystems()[0]
	sched := faultinject.Generate(DeriveSeed(7, 3), chaosGenConfig(sys, 0))
	a, err := runChaosCell(sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runChaosCell(sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash || a.Ops != b.Ops || a.Failed != b.Failed {
		t.Fatalf("same seed diverged: ops %d/%d failed %d/%d hash %x/%x",
			a.Ops, b.Ops, a.Failed, b.Failed, a.Hash, b.Hash)
	}

	seq, err := RunChaos(Params{Seed: 11, Seq: true}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunChaos(Params{Seed: 11}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Cells {
		if seq.Cells[i].Hash != par.Cells[i].Hash {
			t.Errorf("cell %d: sequential hash %x != parallel hash %x (%s)",
				i, seq.Cells[i].Hash, par.Cells[i].Hash, seq.Cells[i].Repro())
		}
	}
}

// TestChaosSeedsArePrefixStable: a chaos cell's schedule depends on its
// system and schedule index alone, so the schedules of a short sweep are
// the first ones of a longer sweep under the same seed.
func TestChaosSeedsArePrefixStable(t *testing.T) {
	short, err := RunChaos(Params{Seed: 11}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunChaos(Params{Seed: 11}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for si, name := range short.Systems {
		a, b := short.Cells[si], long.Cells[si*2]
		if a.Schedule.String() != b.Schedule.String() || a.Hash != b.Hash {
			t.Errorf("%s schedule 0: 1-schedule sweep ran %q (hash %x), 2-schedule sweep %q (hash %x)",
				name, a.Repro(), a.Hash, b.Repro(), b.Hash)
		}
	}
}

// TestChaosReplayRoundTrip: the repro line a violating (or any) cell
// prints must replay to the exact same execution.
func TestChaosReplayRoundTrip(t *testing.T) {
	sys := chaosSystems()[2] // quorum: the most failure-sensitive config
	sched := faultinject.Generate(DeriveSeed(5, 1), chaosGenConfig(sys, 0))
	orig, err := runChaosCell(sys, sched)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayChaos(orig.Repro())
	if err != nil {
		t.Fatalf("ReplayChaos(%q): %v", orig.Repro(), err)
	}
	if replayed.Hash != orig.Hash || replayed.Ops != orig.Ops {
		t.Fatalf("replay diverged: ops %d/%d hash %x/%x",
			orig.Ops, replayed.Ops, orig.Hash, replayed.Hash)
	}

	if _, err := ReplayChaos("not a repro line"); err == nil {
		t.Error("malformed repro accepted")
	}
	if _, err := ReplayChaos("NOSYS :: seed=1"); err == nil {
		t.Error("unknown system accepted")
	}
}

// TestChaosCatchesInjectedViolation plants a real bug — the switch cache
// stops being invalidated on puts (probeDropInvalidate) — and demands
// the checker catch the resulting stale cache hits and print a usable
// repro. This is the end-to-end proof that a silent chaos sweep means
// something.
func TestChaosCatchesInjectedViolation(t *testing.T) {
	probeDropInvalidate = true
	defer func() { probeDropInvalidate = false }()
	var sys chaosSystem
	for _, s := range chaosSystems() {
		if s.name == "NICEKV+cache" {
			sys = s
		}
	}
	if sys.name == "" {
		t.Fatal("cache system missing from chaosSystems")
	}
	// No faults needed: the shared hot keys get cached within a few
	// gets, and the next put leaves the stale entry in the switch.
	cell, err := runChaosCell(sys, faultinject.Schedule{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Violations) == 0 {
		t.Fatal("checker missed the injected stale-cache bug")
	}
	stale := false
	for _, v := range cell.Violations {
		if v.Invariant == "stale-read" {
			stale = true
		}
	}
	if !stale {
		t.Errorf("no stale-read among violations: %v", cell.Violations)
	}
	if !strings.HasPrefix(cell.Repro(), "NICEKV+cache :: seed=99") {
		t.Errorf("unprintable repro: %q", cell.Repro())
	}
}

// TestChaosSweepSurvivesSimFailure: a cell whose simulation fails (a
// proc panicked) is that cell's violation, printed with its repro line;
// the sweep still runs and reports every other cell.
func TestChaosSweepSurvivesSimFailure(t *testing.T) {
	const seed, failed = 42, 1 // the one cell of chaosSystems()[1]
	probeChaosPanicSeed = DeriveSeed(DeriveSeed(seed, failed), 0)
	defer func() { probeChaosPanicSeed = 0 }()
	rep, err := RunChaos(Params{Seed: seed}, 1, 0)
	if err != nil {
		t.Fatalf("one failed cell aborted the sweep: %v", err)
	}
	if len(rep.Cells) != len(chaosSystems()) {
		t.Fatalf("report has %d cells, want %d", len(rep.Cells), len(chaosSystems()))
	}
	for i, c := range rep.Cells {
		if i != failed {
			if c.Ops == 0 || len(c.Violations) != 0 {
				t.Errorf("cell %d (%s): ops=%d violations=%v", i, c.System, c.Ops, c.Violations)
			}
			continue
		}
		if len(c.Violations) != 1 || c.Violations[0].Invariant != "sim-failure" ||
			!strings.Contains(c.Violations[0].Detail, "planted simulation failure") {
			t.Errorf("failed cell's violations = %v, want one sim-failure", c.Violations)
		}
	}
	if !rep.DeterminismOK {
		t.Errorf("a failed cell must replay to the same failure: %v", rep.Mismatches)
	}
	var out strings.Builder
	rep.Fprint(&out)
	want := fmt.Sprintf("VIOLATION repro: %s :: seed=%d", chaosSystems()[failed].name, probeChaosPanicSeed)
	if !strings.Contains(out.String(), want) {
		t.Errorf("report does not name the failed cell (%q):\n%s", want, out.String())
	}
}

// TestChaosReplayLockOwnership replays the schedule that used to panic
// with "unlock of unheld lock": a soft restart (RejoinOrder) drops a
// node's locks but not its WAL, a new put takes a key whose record still
// names an old one, and the resolution verdict on the old put then freed
// the new put's lock. Release is owner-checked now, so the cell
// completes, clean.
func TestChaosReplayLockOwnership(t *testing.T) {
	cell, err := ReplayChaos("NICEKV+heavytraffic :: seed=-8532797161650872670 | slowdisk n0 x=20.720718887827932 @102.232297ms +132.810256ms | delayspike n4 x=5.252439665865953 @141.635297ms +94.806003ms | delayspike n1 x=8.973461347105118 @247.765267ms +44.118438ms | loss n2 r=0.1468147721700231 @253.566178ms +73.199903ms | slownic n3 x=10.837564623045676 @347.712099ms +78.380329ms | loss n0 r=0.27989773575896265 @362.564305ms +158.688213ms | crash n3 @480.739921ms +101.217984ms | crash n1 @523.351516ms +92.58498ms")
	if err != nil {
		t.Fatal(err)
	}
	if cell.Ops == 0 || len(cell.Violations) != 0 {
		t.Fatalf("ops=%d violations=%v", cell.Ops, cell.Violations)
	}
}

// TestChaosLedgerRegressions replays schedules that once produced stale
// reads or colliding versions, and demands zero violations: the open
// ledger the one recovery rule cleared (every view message waits behind
// a switch barrier, every range fetch waits out the puts open at the
// responder; DESIGN §9.4), the fetch race that rule generalizes, and one
// schedule per older defect the rule's new timing reached
// (EXPERIMENTS.md, "The stale-read ledger").
func TestChaosLedgerRegressions(t *testing.T) {
	cases := []struct{ name, repro string }{
		// The seed-99 ledger and the stock 50-schedule line. Of the rule's
		// two halves alone, the barrier clears the quorum lines, the
		// pending wait the durable and ctrlchain ones, either the 2PC and
		// two cache lines; the zombie-commit line needs the verdict rules
		// of the put path below.
		{"ledger-2pc-ctrl-delay", "NICEKV/2PC :: seed=-8501651360667169221 | delayspike n4 x=7.05250058964722 @217.71123ms +107.399268ms | slownic n2 x=7.972165875675713 @241.459484ms +109.505384ms | delayspike n1 x=5.147413961455979 @260.08679ms +141.484281ms | crash n0 @282.03651ms +104.43032ms | slowdisk n3 x=34.764926250933456 @353.382865ms +104.505831ms | ctrl d=5.682637ms r=0.6147609874772144 @378.260238ms +132.743385ms | loss n4 r=0.2501329354489284 @536.141185ms +124.257654ms"},
		{"ledger-cache-ctrl-delay", "NICEKV+cache :: seed=58283907877480356 | linkdown n0 @130.544351ms +107.987824ms | slowdisk n1 x=35.017121330277064 @184.076744ms +62.974876ms | ctrl d=9.374948ms r=0.6300584495850765 @205.804032ms +162.436322ms | partition n4,1 @289.200981ms +102.241347ms | slowdisk n3 x=12.783699851873248 @295.229841ms +102.2761ms | delayspike n0 x=9.90240641711711 @300.704057ms +184.779253ms | delayspike n2 x=4.315623471521315 @374.396799ms +196.391991ms | delayspike n3 x=2.7781251185957347 @460.546173ms +53.400351ms"},
		{"ledger-cache-zombie-commit", "NICEKV+cache :: seed=367453479921598178 | delayspike n3 x=6.5162846097835185 @127.68565ms +56.561157ms | loss n0 r=0.14834288381932248 @174.490152ms +158.306367ms | delayspike n4 x=2.0604143086154316 @278.611383ms +40.185146ms | loss n3 r=0.4460435766820902 @350.837759ms +130.782638ms | partition n2,1 @438.69277ms +143.546872ms"},
		{"ledger-cache-two-crashes", "NICEKV+cache :: seed=-1164578404311422783 | delayspike n4 x=9.009665384318286 @201.161611ms +62.805494ms | crash n0 @280.165933ms +147.829002ms | slownic n3 x=18.893650514251405 @304.209784ms +42.10128ms | crash n2 @336.244884ms +87.831605ms | loss n1 r=0.3967649558048158 @366.763092ms +77.63484ms | loss n4 r=0.06314488446320302 @371.461801ms +163.854561ms | loss n3 r=0.2439977535217056 @430.075745ms +53.223659ms"},
		{"ledger-quorum-ctrl-delay-crash", "NICEKV+quorum :: seed=-6588011038367840843 | loss n0 r=0.4264236000698933 @118.759091ms +164.242094ms | slownic n4 x=16.598981760809075 @125.934456ms +150.281935ms | crash n3 @153.254775ms +107.727217ms | ctrl d=15.00603ms r=0.6865073804364876 @359.618726ms +143.600097ms | loss n2 r=0.11522054833254128 @403.628888ms +134.18038ms | delayspike n1 x=8.759930355618287 @539.527257ms +43.471711ms"},
		{"ledger-quorum-ctrl-delay-loss", "NICEKV+quorum :: seed=7961542766171089858 | loss n2 r=0.3623688951689406 @136.36254ms +198.882748ms | ctrl d=14.839289ms r=0.22314172625794138 @140.894811ms +191.022601ms | loss n1 r=0.25563597515068304 @164.953658ms +148.859734ms | delayspike n0 x=7.059155866021668 @196.286773ms +158.385399ms | loss n4 r=0.3591261147357691 @290.84796ms +60.90957ms | crash n1 @367.179698ms +153.762149ms | slowdisk n3 x=48.09147852243583 @529.459699ms +49.412412ms"},
		{"ledger-durable-staggered-crashes", "NICEKV+durable :: seed=-4225798994606213853 | crash n2 @118.236118ms +100.567087ms | crash n3 @139.438508ms +139.105948ms | crash n4 @312.61873ms +112.126887ms | slowdisk n0 x=30.668277785095103 @324.843044ms +78.997095ms | slowdisk n1 x=7.957798476750104 @402.472244ms +120.678906ms | slowdisk n3 x=6.404459385180832 @477.85148ms +134.888185ms | loss n2 r=0.26469867384011925 @490.251602ms +157.507027ms"},
		{"ledger-ctrlchain-two-takeovers", "NICEKV+ctrlchain :: seed=2857677355687269157 | ctrlcrash @124.261458ms +110.078353ms | slowdisk n4 x=9.381514614253854 @246.223823ms +151.206533ms | crash n3 @260.654042ms +102.422011ms | crash n0 @294.784461ms +156.738971ms | ctrlcrash @297.365378ms +128.580777ms | slownic n4 x=13.011213786313503 @510.140955ms +123.56003ms"},
		{"ledger-durable-stock50", "NICEKV+durable :: seed=-4017517319715824654 | crash n2 @175.987424ms +101.854965ms | slowdisk n1 x=38.62195143390125 @245.488368ms +149.110787ms | crash n3 @303.20748ms +96.332836ms | crash n0 @371.816667ms +88.604028ms | crash n2 @488.350763ms +149.80169ms | delayspike n4 x=7.972370116987489 @500.66489ms +95.475467ms | crash n1 @518.565495ms +91.904699ms"},
		// The fetch race the pending wait was built for when it was
		// harmonia-only.
		{"harmonia-fetch-race", "NICEKV+harmonia :: seed=96504334491089634 | loss n0 r=0.2897726581528765 @149.087948ms +110.438375ms | ctrl d=8.884751ms r=0.5183823915063865 @216.761979ms +146.001159ms | slowdisk n4 x=26.76215727940441 @285.103676ms +89.611877ms | loss n2 r=0.3947557742193006 @400.96345ms +85.004691ms | loss n1 r=0.1783060567657524 @451.828765ms +44.842407ms | loss n3 r=0.20273651132065884 @466.604376ms +187.3573ms | slowdisk n0 x=10.023722286590345 @468.13253ms +133.810291ms | slownic n4 x=19.34719389717938 @492.403432ms +196.317291ms"},
		// The three cells a first cut of this rule surfaced (each passes
		// without the rule), then, per older defect fixed on the way, a
		// schedule that violates with that fix removed.

		// A primary without the dedup record re-ran a put its voters held
		// committed: they acked, and its newer version reached it alone.
		{"durable-dedup-rerun", "NICEKV+durable :: seed=1012834671720556883 | loss n3 r=0.3550729750093764 @185.337062ms +197.076209ms | crash n4 @186.016794ms +125.130164ms | crash n2 @238.351765ms +159.109361ms | linkdown n0 @449.549938ms +130.723287ms | slowdisk n1 x=43.400167730064034 @490.840034ms +186.961287ms | crash n3 @547.095228ms +128.06097ms"},
		// A stand-in turned member synced only from survivors lacking an
		// acked write.
		{"durable-member-sync", "NICEKV+durable :: seed=354576460219417838 | crash n3 @85.327524ms +88.059897ms | crash n0 @179.711829ms +88.338684ms | crash n2 @265.950118ms +103.141728ms | crash n4 @269.286211ms +122.595923ms | linkdown n3 @395.766657ms +99.303338ms | crash n4 @478.215583ms +112.659019ms | loss n2 r=0.3757930794067074 @504.095953ms +173.567844ms"},
		// A deposed primary's commit became the verdict on the new primary's
		// attempt of the same put.
		{"2pc-zombie-commit", "NICEKV/2PC :: seed=-787210419263134744 | crash n4 @88.826321ms +147.724355ms | slownic n3 x=2.103416268779275 @147.513264ms +113.975743ms | crash n1 @201.794236ms +106.18231ms | loss n2 r=0.13708982569502237 @214.311885ms +182.745677ms | loss n3 r=0.44235824713783134 @406.069345ms +64.909452ms | crash n3 @521.100752ms +83.798713ms"},
		// The member sync chases the superseded view (core syncPartition).
		{"2pc-member-sync", "NICEKV/2PC :: seed=5233465955765427657 | loss n4 r=0.4241201449996827 @162.36331ms +107.589799ms | linkdown n3 @269.81787ms +124.615617ms | loss n0 r=0.3044185732923126 @304.582567ms +155.095262ms | loss n1 r=0.3114900091348773 @394.544557ms +113.548204ms | loss n2 r=0.4096345332602474 @406.795516ms +62.661384ms | ctrl d=13.103114ms r=0.6693273061181801 @465.905783ms +175.585568ms"},
		// Timestamp verdicts come from the coordinator only (putState.coord).
		{"cache-zombie-verdict", "NICEKV+cache :: seed=-1792445248934061291 | delayspike n4 x=3.774165766549592 @116.675871ms +79.710835ms | crash n1 @149.155802ms +95.856849ms | ctrl d=12.642398ms r=0.5155048566962364 @175.137647ms +86.107182ms | slowdisk n0 x=10.180687824600797 @199.077984ms +62.223741ms | loss n2 r=0.447652408322269 @324.648441ms +78.691449ms | slownic n3 x=11.764612951543526 @452.583154ms +160.076606ms | delayspike n4 x=3.043639210035507 @522.758922ms +98.982954ms"},
		// The dedup record dies with the crash that may lose its commit.
		{"durable-dedup-after-crash", "NICEKV+durable :: seed=-5223486798839031813 | crash n3 @86.272428ms +157.287107ms | crash n1 @102.516532ms +102.516306ms | slownic n2 x=8.340474936348818 @124.941552ms +73.190504ms | crash n0 @302.805807ms +98.120518ms | crash n4 @332.772762ms +157.718345ms | crash n1 @510.428843ms +115.08588ms"},
		// An any-k non-primary holds primary-routed reads.
		{"quorum-read-before-promotion", "NICEKV+quorum :: seed=-5062487617699376825 | loss n1 r=0.37935934315719244 @171.671481ms +129.463597ms | crash n0 @196.250812ms +114.948011ms | ctrl d=1.533731ms r=0.5035823572778303 @274.849581ms +111.287246ms | crash n4 @405.843171ms +85.548263ms | slowdisk n0 x=42.23007503708011 @437.580174ms +180.567204ms | delayspike n2 x=6.912349203304003 @442.200636ms +192.002053ms | delayspike n3 x=9.000811148745646 @462.095015ms +149.71199ms"},
		// A deposed node is sent the view that drops it.
		{"ctrlchain-deposed-commit", "NICEKV+ctrlchain :: seed=-7206511816856377048 | ctrlcrash @91.03183ms +157.504661ms | ctrl d=3.668794ms r=0.3608835730271628 @205.677327ms +122.38628ms | crash n1 @222.001249ms +130.637535ms | loss n2 r=0.1265083787701638 @248.265374ms +178.606495ms | slownic n4 x=17.500398381406093 @367.236ms +171.229889ms | loss n3 r=0.2869911392049913 @374.725045ms +118.554462ms | crash n0 @470.091647ms +158.970027ms | ctrlcrash @475.074935ms +80.082175ms"},
		// A re-run's newer version is adopted in the handoff directory.
		{"durable-handoff-adoption", "NICEKV+durable :: seed=2613738530009786255 | slowdisk n0 x=32.053435742283554 @229.983847ms +133.032041ms | loss n3 r=0.10353975909189793 @265.007858ms +157.625674ms | crash n4 @279.962473ms +151.354158ms | slownic n2 x=14.540466505392576 @337.76609ms +169.16729ms | crash n1 @464.163206ms +88.955131ms"},
		// Every proper member votes while one is mid-rejoin.
		{"harmonia-rejoiner-missed-put", "NICEKV+harmonia :: seed=6142457956634621845 | loss n2 r=0.2775666272793173 @238.970093ms +114.995165ms | slowdisk n1 x=8.199483877603166 @325.892317ms +87.689983ms | loss n4 r=0.06716120799592883 @362.475366ms +81.456337ms | crash n0 @419.764945ms +81.126224ms | loss n3 r=0.10388706188393 @547.754174ms +190.116139ms"},
		// A slow replica's abort of a superseded attempt retired the live
		// retry's dirty-set mark (harmonia DirtySet.OpAborted).
		{"harmonia-superseded-abort", "NICEKV+harmonia :: seed=9056862084434398244 | loss n3 r=0.07971200273737267 @86.470056ms +90.692351ms | slowdisk n4 x=23.970177166810732 @142.62796ms +179.843101ms | loss n3 r=0.3727206874818632 @272.776087ms +50.465512ms | crash n1 @366.143475ms +133.514795ms | delayspike n2 x=5.037843469149669 @528.97314ms +112.125567ms | slownic n0 x=8.285924953616728 @549.056189ms +179.486502ms"},
		{"harmonia-superseded-abort-2", "NICEKV+harmonia :: seed=8134742671474412031 | delayspike n1 x=9.259184876422417 @84.68399ms +157.57575ms | crash n0 @217.103513ms +127.146473ms | delayspike n3 x=5.591105341963189 @235.234521ms +58.633867ms | loss n0 r=0.20204719228572804 @442.741075ms +106.884692ms | slowdisk n4 x=45.86407233505317 @452.296162ms +144.708203ms | delayspike n2 x=7.909532324473604 @475.242694ms +175.852148ms"},
		// The primary commits at a verdict's version: its own resolution's,
		// or a voter's earlier commit.
		{"2pc-resolution-verdict", "NICEKV/2PC :: seed=5694221423795747153 | ctrl d=3.594659ms r=0.4521252247458983 @415.341622ms +122.640216ms | loss n4 r=0.18584710729837456 @464.153569ms +180.856374ms | partition n2,3 @484.811856ms +103.071298ms | loss n0 r=0.13567696701310294 @508.183707ms +195.963319ms | loss n1 r=0.25043580399284954 @541.908927ms +116.397397ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cell, err := ReplayChaos(c.repro)
			if err != nil {
				t.Fatal(err)
			}
			if cell.Ops == 0 {
				t.Fatal("the replay recorded no operations")
			}
			for _, v := range cell.Violations {
				t.Errorf("replayed schedule violated: %s", v)
			}
		})
	}
}
