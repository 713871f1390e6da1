// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 5): Table 1 (edge-list
// decay across Borůvka iterations), Fig. 2 (per-step time breakdown of
// the Borůvka variants), Fig. 3 (sequential algorithm ranking), and
// Figs. 4-6 (parallel algorithms vs the best sequential baseline on
// random graphs, meshes, and structured inputs).
//
// Experiments return structured Tables so the CLI can render text, CSV or
// JSON and tests can assert the paper's qualitative shapes. Beyond the
// paper, -exp compact renders the compact-graph engine study. Speed
// claims and the CI performance gate live in perfbench/, which scores
// every operation against a frozen sequential yardstick; this package
// only regenerates tables.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"pmsf/internal/boruvka"
	"pmsf/internal/gen"
	"pmsf/internal/graph"
	"pmsf/internal/mstbc"
	"pmsf/internal/seq"
)

// Scale selects the input sizes: Small for CI-speed runs, Medium for
// laptop-scale studies, Paper for the paper's 1M-vertex inputs.
type Scale int

const (
	// Tiny exists for fast automated tests of the harness itself.
	Tiny Scale = iota
	Small
	Medium
	Paper
)

// ParseScale resolves "tiny" / "small" / "medium" / "paper".
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return Tiny, nil
	case "small", "":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return Paper, nil
	}
	return 0, fmt.Errorf("bench: unknown scale %q (want tiny, small, medium or paper)", s)
}

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Paper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// BaseN returns the vertex count of the scale's "1M-class" input.
func (s Scale) BaseN() int {
	switch s {
	case Tiny:
		return 2_000
	case Small:
		return 20_000
	case Medium:
		return 200_000
	default:
		return 1_000_000
	}
}

// Table is one rendered experiment artifact.
type Table struct {
	ID     string // experiment id, e.g. "fig4.random-6m"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(t.Header) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteJSON renders the table as a single JSON object with id, title,
// header, rows and notes — the machine-readable artifact format.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.Header, t.Rows, t.Notes})
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		quoted := make([]string, len(row))
		for i, c := range row {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			quoted[i] = c
		}
		if _, err := fmt.Fprintln(w, strings.Join(quoted, ",")); err != nil {
			return err
		}
	}
	return nil
}

// MarkOversubscribed notes every "p=N" column with N above procs, the
// GOMAXPROCS the table was measured under: those workers shared procs
// OS threads, so the column times scheduling, not parallel speedup.
func (t *Table) MarkOversubscribed(procs int) {
	var cols []string
	for _, h := range t.Header {
		var p int
		if _, err := fmt.Sscanf(h, "p=%d", &p); err == nil && p > procs {
			cols = append(cols, h)
		}
	}
	if len(cols) > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("oversubscribed: %s above GOMAXPROCS=%d (workers share %d OS threads)",
			strings.Join(cols, ", "), procs, procs))
	}
}

// Workload is one named input graph family instantiated at a scale.
type Workload struct {
	Name string
	Make func(scale Scale, seed uint64) *graph.EdgeList
}

// RandomWorkload builds a random graph whose edge count is ratio×n.
func RandomWorkload(ratio int) Workload {
	return Workload{
		Name: fmt.Sprintf("random-%dx", ratio),
		Make: func(s Scale, seed uint64) *graph.EdgeList {
			n := s.BaseN()
			return gen.Random(n, ratio*n, seed)
		},
	}
}

// MeshWorkloads returns the Fig. 5 input families.
func MeshWorkloads() []Workload {
	return []Workload{
		{Name: "mesh", Make: func(s Scale, seed uint64) *graph.EdgeList {
			side := isqrt(s.BaseN())
			return gen.Mesh2D(side, side, seed)
		}},
		{Name: "geometric-k6", Make: func(s Scale, seed uint64) *graph.EdgeList {
			return gen.Geometric(s.BaseN(), 6, seed)
		}},
		{Name: "2D60", Make: func(s Scale, seed uint64) *graph.EdgeList {
			side := isqrt(s.BaseN())
			return gen.Mesh2D60(side, side, seed)
		}},
		{Name: "3D40", Make: func(s Scale, seed uint64) *graph.EdgeList {
			return gen.Mesh3D40(icbrt(s.BaseN()), seed)
		}},
	}
}

// StructuredWorkloads returns the Fig. 6 input families.
func StructuredWorkloads() []Workload {
	return []Workload{
		{Name: "str0", Make: func(s Scale, seed uint64) *graph.EdgeList { return gen.Str0(s.BaseN(), seed) }},
		{Name: "str1", Make: func(s Scale, seed uint64) *graph.EdgeList { return gen.Str1(s.BaseN(), seed) }},
		{Name: "str2", Make: func(s Scale, seed uint64) *graph.EdgeList { return gen.Str2(s.BaseN(), seed) }},
		{Name: "str3", Make: func(s Scale, seed uint64) *graph.EdgeList { return gen.Str3(s.BaseN(), seed) }},
	}
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func icbrt(n int) int {
	r := 1
	for r*r*r < n {
		r++
	}
	return r
}

// timeIt runs f and returns its wall time.
func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// SeqAlgo names a sequential baseline.
type SeqAlgo struct {
	Name string
	Run  func(*graph.EdgeList) *graph.Forest
}

// SeqAlgos returns the three sequential baselines.
func SeqAlgos() []SeqAlgo {
	return []SeqAlgo{
		{"Prim", seq.Prim},
		{"Kruskal", seq.Kruskal},
		{"Boruvka", seq.Boruvka},
	}
}

// BestSequential runs all three baselines on g and returns the winner's
// name and time (each timed once; inputs are large enough for stable
// ranking at Medium+ scale).
func BestSequential(g *graph.EdgeList) (string, time.Duration, map[string]time.Duration) {
	times := make(map[string]time.Duration, 3)
	bestName := ""
	var best time.Duration
	for _, a := range SeqAlgos() {
		d := timeIt(func() { a.Run(g) })
		times[a.Name] = d
		if bestName == "" || d < best {
			bestName, best = a.Name, d
		}
	}
	return bestName, best, times
}

// ParAlgo names a parallel algorithm.
type ParAlgo struct {
	Name string
	Run  func(g *graph.EdgeList, workers int, seed uint64) *graph.Forest
}

// ParAlgos returns the five parallel algorithms.
func ParAlgos() []ParAlgo {
	return []ParAlgo{
		{"Bor-EL", func(g *graph.EdgeList, p int, seed uint64) *graph.Forest {
			return boruvka.EL(g, boruvka.Options{Workers: p, Seed: seed})
		}},
		{"Bor-AL", func(g *graph.EdgeList, p int, seed uint64) *graph.Forest {
			return boruvka.AL(g, boruvka.Options{Workers: p, Seed: seed})
		}},
		{"Bor-ALM", func(g *graph.EdgeList, p int, seed uint64) *graph.Forest {
			return boruvka.ALM(g, boruvka.Options{Workers: p, Seed: seed})
		}},
		{"Bor-FAL", func(g *graph.EdgeList, p int, seed uint64) *graph.Forest {
			return boruvka.FAL(g, boruvka.Options{Workers: p, Seed: seed})
		}},
		{"MST-BC", func(g *graph.EdgeList, p int, seed uint64) *graph.Forest {
			return mstbc.Run(g, mstbc.Options{Workers: p, Seed: seed})
		}},
	}
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}
