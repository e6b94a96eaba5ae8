package cluster

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Params bounds experiment cost. The paper runs 1000 operations per
// point; benches shrink this to keep `go test -bench` quick.
type Params struct {
	Ops  int
	Seed int64
	// Seq forces the figure sweeps to run their grid cells sequentially
	// instead of on the RunCells worker pool. Results are identical either
	// way; Seq exists for debugging and the determinism tests.
	Seq bool
}

// ObjectSizes is the x-axis of Figs. 4-6: 4 B to 1 MB.
var ObjectSizes = []int{4, 1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// Point is one measurement.
type Point struct {
	X     string
	Value float64
}

// Series is one system's line in a figure.
type Series struct {
	System string
	Points []Point
}

// Figure is one reproduced result.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Fprint renders the figure as an aligned table, one row per x value.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	if len(f.Series) == 0 {
		return
	}
	// One tab-separated line per row; the last cell carries no padding.
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.System)
	}
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for i, pt := range f.Series[0].Points {
		row := []string{pt.X}
		for _, s := range f.Series {
			if i < len(s.Points) {
				row = append(row, fmt.Sprintf("%.6g", s.Points[i].Value))
			} else {
				row = append(row, "-")
			}
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintf(w, "   (%s)\n\n", f.YLabel)
}

// SeriesValue returns series sys at x (for assertions in tests/benches).
func (f *Figure) SeriesValue(sys, x string) (float64, bool) {
	for _, s := range f.Series {
		if s.System != sys {
			continue
		}
		for _, pt := range s.Points {
			if pt.X == x {
				return pt.Value, true
			}
		}
	}
	return 0, false
}

// keysInPartition returns n distinct keys hashing into partition part.
func (d *NICE) keysInPartition(part, n int) []string {
	return keysIn(d.Space.PartitionOf, "obj-%d", part, n)
}

// keysIn returns the first n keys of the format's sequence that hash
// into partition part.
func keysIn(partOf func(string) int, format string, part, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf(format, i)
		if partOf(k) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// fig4Systems is the system axis of Figs. 4-7: NICE, then the NOOB
// baseline under each §6.1/§6.2 access mechanism. The names are arms.
var fig4Systems = []string{"NICE", "NOOB+ROG", "NOOB+RAG", "NOOB+RAC"}

// sizeLabels renders an object-size axis.
func sizeLabels(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, size := range sizes {
		out[i] = metrics.FormatSize(size)
	}
	return out
}

// getLatencyCell writes one object of the given size and measures the
// mean latency of pr.Ops gets of it.
func getLatencyCell(pr Params, arm string, size int) (float64, error) {
	var h metrics.Histogram
	err := withBench(arm, seededOptions(pr.Seed), 0, func(b *bench) error {
		_, err := b.Run(1, func(_ int, p *sim.Proc) error {
			if _, err := b.Clients[0].Put(p, "routed", "v", size); err != nil {
				return err
			}
			return getRepeat(b.Clients[0], p, "routed", pr.Ops, &h)
		})
		return err
	})
	return h.Mean(), err
}

// Fig4RequestRouting reproduces Fig. 4: mean get latency vs object size
// for NICE and the three NOOB access mechanisms. The (system, size) grid
// runs on the RunCells worker pool.
func Fig4RequestRouting(pr Params) (*Figure, error) {
	vals, err := grid[float64]{
		Dims: []int{len(fig4Systems), len(ObjectSizes)},
		Cell: func(pr Params, ix []int) (float64, error) {
			return getLatencyCell(pr, fig4Systems[ix[0]], ObjectSizes[ix[1]])
		},
	}.Run(pr)
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     "fig4",
		Title:  "Request routing performance (get latency)",
		XLabel: "size",
		YLabel: "seconds per get, mean",
		Series: seriesOf(fig4Systems, sizeLabels(ObjectSizes), vals, identity),
	}, nil
}

// replicationRun is one cell of Figs. 5-7: puts of one size into a
// single partition.
type replicationRun struct {
	lat       float64 // mean put latency
	linkBytes float64 // bytes over all links per put
	loadRatio float64 // primary : mean-secondary bytes moved
}

func putRun(pr Params, arm string, size int) (run replicationRun, err error) {
	err = withBench(arm, seededOptions(pr.Seed), 0, func(b *bench) error {
		const part = 0
		keys := keysIn(b.Space.PartitionOf, "obj-%d", part, pr.Ops)
		var h metrics.Histogram
		if _, err := b.Run(1, func(_ int, p *sim.Proc) error {
			b.Net.ResetLinkStats()
			b.Net.ResetHostStats()
			if err := putEach(b.Clients[0], p, keys, size, &h); err != nil {
				return err
			}
			p.Sleep(5 * time.Millisecond) // drain trailing acks into the counters
			return nil
		}); err != nil {
			return err
		}
		moved := func(node int) float64 {
			st := b.Stacks[node].Host().Stats()
			return float64(st.BytesRecv + st.BytesSent)
		}
		reps := b.replicas(part)
		var secBytes float64
		for _, idx := range reps[1:] {
			secBytes += moved(idx)
		}
		secBytes /= float64(len(reps) - 1)
		run = replicationRun{
			lat:       h.Mean(),
			linkBytes: float64(b.Net.TotalLinkBytes()) / float64(pr.Ops),
			loadRatio: moved(reps[0]) / secBytes,
		}
		return nil
	})
	return run, err
}

// ReplicationFigures reproduces Figs. 5, 6 and 7 from one sweep: put
// latency, total network link load per put, and the primary:secondary
// storage-load ratio, for NICE vs the NOOB primary-only design under
// ROG/RAG/RAC routing.
func ReplicationFigures(pr Params) (fig5, fig6, fig7 *Figure, err error) {
	runs, err := grid[replicationRun]{
		Dims: []int{len(fig4Systems), len(ObjectSizes)},
		Cell: func(pr Params, ix []int) (replicationRun, error) {
			return putRun(pr, fig4Systems[ix[0]], ObjectSizes[ix[1]])
		},
	}.Run(pr)
	if err != nil {
		return nil, nil, nil, err
	}
	names, xs := fig4Systems, sizeLabels(ObjectSizes)
	fig5 = &Figure{ID: "fig5", Title: "Replication performance (put latency)", XLabel: "size", YLabel: "seconds per put, mean",
		Series: seriesOf(names, xs, runs, func(r replicationRun) float64 { return r.lat })}
	fig6 = &Figure{ID: "fig6", Title: "Network link load per put", XLabel: "size", YLabel: "bytes over all links per put",
		Series: seriesOf(names, xs, runs, func(r replicationRun) float64 { return r.linkBytes })}
	fig7 = &Figure{ID: "fig7", Title: "Storage load ratio (primary:secondary)", XLabel: "size", YLabel: "ratio of bytes moved",
		Series: seriesOf(names, xs, runs, func(r replicationRun) float64 { return r.loadRatio })}
	return fig5, fig6, fig7, nil
}
