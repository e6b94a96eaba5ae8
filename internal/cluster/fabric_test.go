package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// testFabrics are the three switch layers assemble builds on.
var testFabrics = []struct {
	name  string
	build func(Options) *NICE
}{
	{"single", NewNICE},
	{"edgeovs", func(o Options) *NICE { o.EdgeOVS = true; return NewNICE(o) }},
	{"leafspine3", func(o Options) *NICE { return NewNICELeafSpine(o, 3) }},
}

// onEveryFabric runs test once per fabric, as a subtest named after it.
// The takeover tests use it: the switch identity takeover (the
// meta-takeover rewrite rule) has to work wherever assemble can place a
// standby, multi-switch included.
func onEveryFabric(t *testing.T, test func(t *testing.T, build func(Options) *NICE)) {
	for _, fab := range testFabrics {
		t.Run(fab.name, func(t *testing.T) { test(t, fab.build) })
	}
}

// niceFeatures lists the armFeatures tokens that switch on a NICE
// subsystem (they change Options; the NOOB tokens change only the
// baseline's own fields), sorted.
func niceFeatures() []string {
	var out []string
	for name, feature := range armFeatures {
		o := DefaultNOOBOptions()
		before := o.Options
		feature(&o)
		if !reflect.DeepEqual(before, o.Options) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// featureWired reports whether the deployment really carries the
// subsystem a feature token names, for the tokens that leave a trace on
// the NICE struct.
var featureWired = map[string]func(d *NICE) bool{
	"cache":    func(d *NICE) bool { return d.Cache != nil && d.CacheMgr != nil },
	"harmonia": func(d *NICE) bool { return d.Harmonia != nil },
	"standby":  func(d *NICE) bool { return d.Standby != nil && d.Chain != nil },
	"durable": func(d *NICE) bool {
		_, ok := d.Nodes[0].Store().StorageStats()
		return ok
	},
	// A partition's two mapping rules plus one rule per client division:
	// R static divisions, or the rebalancer's finer grain — the smallest
	// power of two holding 2R (controller.dynamicDivisionsFor).
	"lb": func(d *NICE) bool { return d.Service.Stats().RulesPerPart == 2+d.Opts.R },
	"dynamiclb": func(d *NICE) bool {
		ndiv := 1
		for ndiv < 2*d.Opts.R {
			ndiv <<= 1
		}
		return d.Service.Stats().RulesPerPart == 2+ndiv
	},
}

// TestFabricFeatureMatrix is the assembler's contract: every NICE
// subsystem an arm can name builds, settles and serves a put and a get
// on every fabric. The one combination that cannot exist — client edge
// switches under a leaf-spine fabric — is refused, not ignored. The
// in-switch stages are stages of the core datapath, never a wrapper around
// it: the core switch's pipeline is d.Core whatever is deployed, and with
// both deployed the cache runs ahead of the dirty set.
func TestFabricFeatureMatrix(t *testing.T) {
	features := niceFeatures()
	if got := strings.Join(features, " "); got != "cache durable dynamiclb edgeovs groupcommit harmonia lb quorum standby" {
		t.Fatalf("NICE features of armFeatures = %q; extend this test's expectations with the table", got)
	}
	for _, fab := range testFabrics {
		for _, feature := range append(features, "cache+harmonia") {
			t.Run(fab.name+"/"+feature, func(t *testing.T) {
				base := DefaultOptions()
				base.Nodes = 6
				o, _, err := resolveArm("NICEKV+"+feature, base)
				if err != nil {
					t.Fatal(err)
				}
				if fab.name == "leafspine3" && feature == "edgeovs" {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "EdgeOVS") {
							t.Errorf("leaf-spine with EdgeOVS: recovered %q, want the refusal", msg)
						}
					}()
					fab.build(o.Options)
					t.Fatal("leaf-spine accepted EdgeOVS")
				}
				d := fab.build(o.Options)
				defer d.Close()
				if err := d.Settle(); err != nil {
					t.Fatal(err)
				}
				if wired := featureWired[feature]; wired != nil && !wired(d) {
					t.Errorf("%s is not wired into the deployment", feature)
				}
				if d.Core.Switch().Pipeline() != netsim.Pipeline(d.Core) {
					t.Errorf("the core switch's pipeline is %T, want the datapath itself", d.Core.Switch().Pipeline())
				}
				done := false
				d.Sim.Spawn("driver", func(p *sim.Proc) {
					defer d.Sim.Stop()
					c := d.Clients[0]
					if _, err := c.Put(p, "matrix", "v", 1024); err != nil {
						t.Errorf("put: %v", err)
						return
					}
					if res, err := c.Get(p, "matrix"); err != nil || !res.Found || res.Value != "v" {
						t.Errorf("get = %+v, %v", res, err)
						return
					}
					if feature == "cache+harmonia" {
						checkStageOrder(t, p, d)
					}
					done = true
				})
				if err := d.Sim.Run(); err != nil {
					t.Fatal(err)
				}
				if !done {
					t.Error("driver did not finish")
				}
			})
		}
	}
}

// checkStageOrder reads two keys of a partition whose primary sits
// across the core from client 0: one resident in the switch cache, one
// not. The hit is answered by the cache and never moves a dirty-set
// counter; the miss passes on and the dirty set routes it.
func checkStageOrder(t *testing.T, p *sim.Proc, d *NICE) {
	keys := d.keysInPartition(0, 2)
	d.Cache.InstallAs(0, keys[0], "cached", 100, 1)
	p.Sleep(10 * CtrlDelay)
	cache, dirty := d.Cache.Stats(), d.Harmonia.Stats()
	if res, err := d.Clients[0].Get(p, keys[0]); err != nil || res.Value != "cached" {
		t.Errorf("get of the resident key = %+v, %v", res, err)
	}
	if got := d.Cache.Stats(); got.Hits != cache.Hits+1 {
		t.Errorf("the cache did not answer: %+v", got)
	}
	if got := d.Harmonia.Stats(); got != dirty {
		t.Errorf("a cache hit reached the dirty set: %+v, was %+v", got, dirty)
	}
	if _, err := d.Clients[0].Get(p, keys[1]); err != nil {
		t.Errorf("get of the uncached key: %v", err)
	}
	if got := d.Harmonia.Stats(); got.Routed != dirty.Routed+1 || d.Cache.Stats().Misses != cache.Misses+1 {
		t.Errorf("a cache miss was not passed on to the dirty set: %+v", got)
	}
}

// TestLeafSpineHonoursTimeoutOptions pins what the twin builder dropped
// on the floor: the leaf-spine deployment used to ignore AckTimeout,
// RetryMaxWait and MaxRetries, so a client there retried on the core
// default budget whatever the options said.
func TestLeafSpineHonoursTimeoutOptions(t *testing.T) {
	opts := chaosOptions(7)
	opts.Heartbeat = time.Second // no failure verdict inside the test window
	opts.MaxRetries = 1
	d := NewNICELeafSpine(opts, 3)
	defer d.Close()
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	const part = 0
	key := d.keysInPartition(part, 1)[0]
	d.Sim.Spawn("driver", func(p *sim.Proc) {
		defer d.Sim.Stop()
		c := d.Clients[0]
		if _, err := c.Put(p, key, "v", 512); err != nil {
			t.Errorf("seed put: %v", err)
			return
		}
		for _, r := range d.Service.View(part).Replicas {
			d.Nodes[r.Index].Crash()
		}
		start := p.Now()
		_, err := c.Get(p, key)
		var opErr *core.OpError
		if !errors.As(err, &opErr) {
			t.Errorf("get against crashed replicas: got %v, want *core.OpError", err)
			return
		}
		if opErr.Attempts != opts.MaxRetries+1 {
			t.Errorf("client gave up after %d attempts, want MaxRetries+1 = %d", opErr.Attempts, opts.MaxRetries+1)
		}
		// Two timeouts and one capped back-off: far inside the core
		// default budget of six one-second attempts.
		if budget := 2*opts.OpTimeout + opts.RetryMaxWait*2; p.Now()-start > budget {
			t.Errorf("get took %v, want at most %v", p.Now()-start, budget)
		}
	})
	if err := d.Sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// ruleTablesHash folds every datapath's flow table (priority, match,
// actions, cookie, in table order) and group table (id, buckets) into
// one hash, switches in creation order.
func ruleTablesHash(d *NICE) string {
	h := sha256.New()
	for _, sw := range d.Net.Switches() {
		dp, ok := sw.Pipeline().(*openflow.Datapath)
		if !ok {
			continue
		}
		fmt.Fprintf(h, "== %s\n", sw.DeviceName())
		for _, e := range dp.Table().Entries() {
			fmt.Fprintf(h, "%d|%s|%s|%q\n", e.Priority, e.Match, actionsString(e.Actions), e.Cookie)
		}
		// Group ids are 64p+k (controller.installPartition).
		for id := 0; id < 64*d.Opts.Nodes; id++ {
			if g, ok := dp.Groups().Get(openflow.GroupID(id)); ok {
				fmt.Fprintf(h, "group %d:", id)
				for _, b := range g.Buckets {
					fmt.Fprintf(h, " [%s]", actionsString(b.Actions))
				}
				fmt.Fprintln(h)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func actionsString(actions []openflow.Action) string {
	parts := make([]string, len(actions))
	for i, a := range actions {
		parts[i] = fmt.Sprintf("%T%v", a, a)
	}
	return strings.Join(parts, ",")
}

// TestFabricRuleTablesGolden pins what the controller installs, on every
// fabric, against hashes recorded before the controller learned to read
// the switch tree off the cabling (at 87c3be0, when each fabric still
// registered every port with a hand-written Topology): the rule and
// group tables at bootstrap, and again after one node has failed, been
// covered by a handoff and rejoined.
func TestFabricRuleTablesGolden(t *testing.T) {
	golden := map[string][2]string{
		"single":     {"99936083b1c841f2", "e59f6d8c37621d6d"},
		"edgeovs":    {"617cefc741fe2aa2", "49cd43e2d57ee039"},
		"leafspine3": {"bfc5a436b1604263", "f24ea1af9e0cc7be"},
	}
	onEveryFabric(t, func(t *testing.T, build func(Options) *NICE) {
		opts := DefaultOptions()
		opts.Nodes = 6
		opts.Clients = 2
		opts.LoadBalance = true
		opts.Cache = true
		opts.Standby = true
		opts.Heartbeat = ms(100)
		d := build(opts)
		defer d.Close()
		if err := d.Settle(); err != nil {
			t.Fatal(err)
		}
		name := t.Name()[strings.LastIndexByte(t.Name(), '/')+1:]
		want := golden[name]
		if got := ruleTablesHash(d); got != want[0] {
			t.Errorf("bootstrap rule tables hash %s, want %s", got, want[0])
		}
		const victim = 1
		d.Sim.Spawn("driver", func(p *sim.Proc) {
			defer d.Sim.Stop()
			d.Nodes[victim].Crash()
			p.Sleep(time.Second)
			if v := d.Service.View(victim); v.HasReplica(victim) || v.Handoff == nil {
				t.Errorf("failure not covered: %+v", v)
			}
			d.Nodes[victim].Restart()
			p.Sleep(time.Second)
			if v := d.Service.View(victim); !v.HasReplica(victim) || v.Handoff != nil {
				t.Errorf("rejoin incomplete: %+v", v)
			}
		})
		if err := d.Sim.Run(); err != nil {
			t.Fatal(err)
		}
		if got := ruleTablesHash(d); got != want[1] {
			t.Errorf("rule tables hash after failure and rejoin %s, want %s", got, want[1])
		}
	})
}
