// Command benchab is the A/B pair runner for the repository benchmark: it
// checks a base ref and HEAD out into two git worktrees, runs `bash
// bench/run.sh` for one workload in each, alternating which side goes
// first (base, head, head, base, …) so that drift in the machine lands on
// both sides alike, and prints per metric both sides' medians and
// quartiles, how many pairs HEAD won, and a two-sided sign-test p-value.
// Every end-to-end metric also gets the acceptance rule's VERDICT (see
// verdict), judged against the bound BENCHMARK.json gives it.
// machine.canary_ms — the benchmark's fixed reference loop — is printed
// first: when its two medians differ, the machine changed under the run and
// the timing rows mean little. The worktrees are removed on exit.
//
// It measures committed code only (HEAD, not the working tree), and sits
// outside bench/ because it compares two copies of the benchmark rather
// than being part of either.
//
// Usage:
//
//	benchab -base <git-ref> -workload <name> [-pairs 10] [-seconds 5] [-trace 1] [-seed 1]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// side is one of the two checkouts under comparison.
type side struct {
	name, ref, dir string
	runs           []map[string]float64 // one metric set per completed run
}

func run() error {
	base := flag.String("base", "", "git ref to compare HEAD against (required)")
	workload := flag.String("workload", "", "benchmark workload to run (required), e.g. query-hot")
	pairs := flag.Int("pairs", 10, "number of base/head pairs")
	seconds := flag.Float64("seconds", 5, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the probe ladder too, for the per-layer timing rows")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		return errors.New("-base and -workload are required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sides := [2]*side{
		{name: "base", ref: *base, dir: filepath.Join(tmp, "base")},
		{name: "head", ref: "HEAD", dir: filepath.Join(tmp, "head")},
	}
	for _, s := range sides {
		if out, err := exec.CommandContext(ctx, "git", "worktree", "add", "--detach", s.dir, s.ref).CombinedOutput(); err != nil {
			return fmt.Errorf("git worktree add %s: %v\n%s", s.ref, err, out)
		}
		// Not under ctx: an interrupted run still has to clean up.
		defer exec.Command("git", "worktree", "remove", "--force", s.dir).Run()
	}
	specs, err := readManifest(filepath.Join(sides[1].dir, "BENCHMARK.json"))
	if err != nil {
		return err
	}

	args := []string{"bench/run.sh", "--workload", *workload,
		"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(*trace), "--seed", strconv.FormatInt(*seed, 10)}
	var order []string // metric names as the benchmark first printed them
	for pair := 0; pair < *pairs; pair++ {
		first, second := sides[pair%2], sides[1-pair%2]
		for _, s := range []*side{first, second} {
			metrics, names, err := runOnce(ctx, s.dir, args)
			if err != nil {
				return fmt.Errorf("pair %d, %s (%s): %w", pair+1, s.name, s.ref, err)
			}
			s.runs = append(s.runs, metrics)
			if order == nil {
				order = names
			}
			fmt.Fprintf(os.Stderr, "pair %d/%d %s done\n", pair+1, *pairs, s.name)
		}
	}
	report(os.Stdout, *workload, sides[0], sides[1], order, specs)
	return nil
}

// metricSpec is one metric's manifest entry: which way it improves and,
// for an end-to-end metric (the only kind the manifest bounds), the
// relative worsening its gate allows.
type metricSpec struct {
	Name, Better string
	Bound        *float64
}

// readManifest reads every metric's entry from the manifest.
func readManifest(manifest string) (map[string]metricSpec, error) {
	raw, err := os.ReadFile(manifest)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifest, err)
	}
	specs := make(map[string]metricSpec)
	for _, x := range append(m.EndToEnd, m.PerLayer...) {
		specs[x.Name] = x
	}
	return specs, nil
}

// tableRow matches one line of the benchmark's metric table.
var tableRow = regexp.MustCompile(`^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+\S`)

// runOnce runs the benchmark in dir and returns every metric it printed:
// the table rows, overridden by the JSON result line (the last line of
// standard output), which carries full precision. A run with failed ops or
// without a result line is an error — the pair would compare nothing.
func runOnce(ctx context.Context, dir string, args []string) (map[string]float64, []string, error) {
	cmd := exec.CommandContext(ctx, "bash", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var result struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		return nil, nil, fmt.Errorf("no JSON result line: %w", err)
	}
	if !result.Correct || result.Failed > 0 {
		return nil, nil, fmt.Errorf("%d ops failed", result.Failed)
	}
	metrics := make(map[string]float64)
	var names []string
	for _, line := range lines[:len(lines)-1] {
		if m := tableRow.FindStringSubmatch(line); m != nil {
			if v, err := strconv.ParseFloat(m[2], 64); err == nil {
				metrics[m[1]] = v
				names = append(names, m[1])
			}
		}
	}
	for name, m := range result.Metrics {
		if _, seen := metrics[name]; !seen {
			names = append(names, name)
		}
		metrics[name] = m.Value
	}
	return metrics, names, nil
}

func report(out io.Writer, workload string, base, head *side, order []string, specs map[string]metricSpec) {
	pairs := len(base.runs)
	fmt.Fprintf(out, "workload %s: %d pairs, base %s vs HEAD; median [q1 … q3]\n", workload, pairs, base.ref)
	const canary = "machine.canary_ms"
	fmt.Fprintf(out, "%s: base %s, head %s\n\n", canary, spread(column(base, canary)), spread(column(head, canary)))
	fmt.Fprintf(out, "%-28s %-36s %-36s %8s %7s %8s  %s\n", "METRIC", "BASE", "HEAD", "CHANGE", "WINS", "SIGN-P", "VERDICT")
	for _, name := range order {
		if name == canary {
			continue
		}
		b, h := column(base, name), column(head, name)
		if len(b) != pairs || len(h) != pairs {
			continue // not printed by every run
		}
		spec := specs[name]
		higher := spec.Better == "higher"
		wins, losses := pairWins(b, h, higher)
		change := "    n/a"
		if mb := quantile(b, 0.5); mb != 0 {
			change = fmt.Sprintf("%+7.2f%%", (quantile(h, 0.5)-mb)/math.Abs(mb)*100)
		}
		v := ""
		if spec.Bound != nil {
			v = verdict(b, h, higher, *spec.Bound)
		}
		fmt.Fprintf(out, "%-28s %-36s %-36s %8s %4d/%-2d %8.4f  %s\n", name, spread(b), spread(h), change, wins, pairs, signTest(wins, losses), v)
	}
}

// pairWins counts the pairs HEAD won and lost; a tie counts for neither.
func pairWins(base, head []float64, higher bool) (wins, losses int) {
	for i := range base {
		switch d := head[i] - base[i]; {
		case d == 0:
		case (d > 0) == higher:
			wins++
		default:
			losses++
		}
	}
	return wins, losses
}

// verdict applies the acceptance rule to one end-to-end metric, whose
// runs may worsen by the relative bound before the change is rejected:
//
//   - gain: HEAD won at least ⌈0.9·pairs⌉ pairs and its median is better
//     than the base median by more than the base runs' q3−q1;
//   - worse: the HEAD median is worse than the base median by more than
//     bound;
//   - unresolved: the base runs' q3−q1 exceeds bound, so a worsening the
//     gate forbids could hide in the noise, and not every HEAD run beats
//     every base run;
//   - ok: otherwise.
func verdict(base, head []float64, higher bool, bound float64) string {
	// Lower is better: an improvement is a fall, and HEAD beats every base
	// run when its worst run is below the base's best.
	sign, allBeat := -1.0, slices.Max(head) < slices.Min(base)
	if higher {
		sign, allBeat = 1, slices.Min(head) > slices.Max(base)
	}
	mb, mh := quantile(base, 0.5), quantile(head, 0.5)
	iqr := quantile(base, 0.75) - quantile(base, 0.25)
	wins, _ := pairWins(base, head, higher)
	switch {
	case wins >= int(math.Ceil(0.9*float64(len(base)))) && sign*(mh-mb) > iqr:
		return "gain"
	case sign*(mb-mh) > bound*math.Abs(mb):
		return "worse"
	case iqr > bound*math.Abs(mb) && !allBeat:
		return "unresolved"
	}
	return "ok"
}

// column collects one metric over a side's runs, in run order.
func column(s *side, name string) []float64 {
	var vals []float64
	for _, r := range s.runs {
		if v, ok := r[name]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}

func spread(vals []float64) string {
	if len(vals) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.4g [%.4g … %.4g]", quantile(vals, 0.5), quantile(vals, 0.25), quantile(vals, 0.75))
}

// quantile interpolates linearly between the order statistics of vals.
func quantile(vals []float64, q float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// signTest is the two-sided sign test: the probability, were each untied
// pair a fair coin, of a split at least as lopsided as wins:losses.
func signTest(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	k := max(wins, losses)
	tail := 0.0
	for i := k; i <= n; i++ {
		tail += binomial(n, i)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

func binomial(n, k int) float64 {
	c := 1.0
	for i := 1; i <= k; i++ {
		c = c * float64(n-k+i) / float64(i)
	}
	return c
}
