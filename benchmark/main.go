// Command benchmark is this repository's one performance benchmark: four
// unsimulated workloads driven over the wire protocol, seven gated
// end-to-end metrics, and a traced "ladder" run that attributes a
// statement's time to server, shell, engine, exec, index, core, heap,
// buffer and wal from outside the program. See README.md in this
// directory for the glossary and the expected interactions, and
// BENCHMARK.json at the repository root for the gates.
//
//	go run ./benchmark -seed 1                      every workload, end-to-end metrics
//	go run ./benchmark -seed 1 -traced              plus the per-layer ladder
//	go run ./benchmark -seed 1 -workload hit_point  one workload
//	go run ./benchmark -aa 5                        same-code spread against the gates
//
// The gate driver runs "bash benchmark/run.sh --workload W --seed N
// --seconds S --trace 0|1", which is "-workload W -seed N -window Ss
// [-traced] -line" here, and reads the last line of standard output.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro"
)

// setupReps is how many times a run sets the workload up, in separate
// processes; setup_s is the median.
const setupReps = 3

// config is one invocation's settings.
type config struct {
	seed      int64
	window    time.Duration
	traced    bool
	dir       string
	rows      int // smoke-test scale, 0 = full size
	ladderOps int
	setupReps int
}

func main() {
	started := time.Now()
	if os.Getenv(childEnv) != "" {
		childMain(started)
	}
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same rows and statements")
		window   = flag.Duration("window", 20*time.Second, "measured window per workload")
		traced   = flag.Bool("traced", false, "also run the traced ladder and print the per-layer metrics")
		line     = flag.Bool("line", false, "gate-driver mode: end standard output with one JSON line of -workload's end-to-end metrics, or with -traced its per-layer metrics")
		out      = flag.String("out", "", "also write the JSON document to this file")
		aa       = flag.Int("aa", 0, "A/A mode: run the suite this many times and check every gated metric's spread against BENCHMARK.json")
		dir      = flag.String("dir", filepath.Join("benchmark", "out"), "scratch directory (data files, spans.jsonl)")
	)
	flag.Parse()
	cfg := config{seed: *seed, window: *window, traced: *traced, dir: *dir, setupReps: setupReps}
	if _, err := os.Stat("go.mod"); err != nil {
		fatalf("run from the root of a checkout of the repository: %v", err)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatalf("%v", err)
	}

	names := workloadNames(*workload)
	switch {
	case *line:
		if len(names) != 1 {
			fatalf("-line needs -workload")
		}
		driverMode(cfg, names[0])
	case *aa > 0:
		os.Exit(aaMode(cfg, names, *aa))
	default:
		doc, ok := suite(cfg, names, os.Stdout)
		enc, _ := json.MarshalIndent(doc, "", "  ")
		fmt.Println(string(enc))
		if *out != "" {
			if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
				fatalf("%v", err)
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames(only string) []string {
	if only != "" {
		if _, ok := specByName(only); !ok {
			fatalf("unknown workload %q", only)
		}
		return []string{only}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return names
}

// document is the JSON every human-facing mode prints.
type document struct {
	Machine   map[string]any `json:"machine"`
	Seed      int64          `json:"seed"`
	WindowS   float64        `json:"window_s"`
	Workloads []result       `json:"workloads"`
	// Claim is always null: this benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

func machineFacts() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"conns":      numConns,
	}
}

// suite runs the named workloads once and prints each one's table.
func suite(cfg config, names []string, w io.Writer) (document, bool) {
	doc := document{Machine: machineFacts(), Seed: cfg.seed, WindowS: cfg.window.Seconds()}
	if cfg.traced {
		os.Remove(filepath.Join(cfg.dir, "spans.jsonl"))
	}
	ok := true
	for _, name := range names {
		r, err := runWorkload(cfg, name)
		if err != nil {
			fatalf("%s: %v", name, err)
		}
		printTable(w, r)
		ok = ok && r.Correct
		doc.Workloads = append(doc.Workloads, r)
	}
	return doc, ok
}

// driverMode prints the one-line result the gate driver reads.
func driverMode(cfg config, name string) {
	layers := cfg.traced
	if layers {
		cfg.setupReps = 1
		os.Remove(filepath.Join(cfg.dir, "spans.jsonl"))
	}
	r, err := runWorkload(cfg, name)
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	printTable(os.Stderr, r)
	m := r.EndToEnd
	if layers {
		m = r.PerLayer
	}
	type unitValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	outM := make(map[string]unitValue, len(m))
	for k, v := range m {
		outM[k] = unitValue{v.Value, v.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": outM})
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// spawn re-executes this binary as a child with the given job and
// returns the running command and a reader of its stdout.
func spawn(job childJob) (*exec.Cmd, *bufio.Reader, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	enc, err := json.Marshal(job)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	return cmd, bufio.NewReaderSize(pipe, 1<<20), nil
}

// readReport reads the child's one report line.
func readReport(r *bufio.Reader) (childReport, error) {
	var rep childReport
	line, err := r.ReadBytes('\n')
	if err != nil {
		return rep, fmt.Errorf("child ended without a report: %w", err)
	}
	if err := json.Unmarshal(line, &rep); err != nil {
		return rep, fmt.Errorf("bad report %q: %w", line, err)
	}
	return rep, nil
}

// runChild runs a child to completion and returns its report.
func runChild(job childJob) (childReport, error) {
	cmd, out, err := spawn(job)
	if err != nil {
		return childReport{}, err
	}
	rep, err := readReport(out)
	if werr := cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("child: %w", werr)
	}
	return rep, err
}

// runWorkload measures one workload: setup-only children for the
// set-up median, one child for the measured window (killed and
// recovered for dml_durable), and with cfg.traced one for the ladder.
func runWorkload(cfg config, name string) (result, error) {
	sp, _ := specByName(name)
	job := childJob{Workload: name, Seed: cfg.seed, Window: cfg.window, Rows: cfg.rows,
		LadderOps: cfg.ladderOps, Layers: cfg.traced}
	dataDir := func() (string, error) {
		d := filepath.Join(cfg.dir, fmt.Sprintf("data-%s-%d", name, os.Getpid()))
		os.RemoveAll(d)
		return d, os.MkdirAll(d, 0o755)
	}

	var setups []float64
	for i := 1; i < cfg.setupReps; i++ {
		j := job
		j.Mode = "setup"
		var err error
		if j.Dir, err = dataDir(); err != nil {
			return result{}, err
		}
		rep, err := runChild(j)
		os.RemoveAll(j.Dir)
		if err != nil {
			return result{}, fmt.Errorf("set-up run: %w", err)
		}
		setups = append(setups, rep.SetupS)
	}

	job.Mode = "window"
	var err error
	if job.Dir, err = dataDir(); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(job.Dir)
	var rep childReport
	var recoveryS float64
	lost := 0
	if sp.Durable {
		rep, recoveryS, lost, err = runDurable(sp.scale(cfg.rows, 0), job)
	} else {
		rep, err = runChild(job)
	}
	if err != nil {
		return result{}, err
	}
	setups = append(setups, rep.SetupS)
	m := rep.Metrics
	m["setup_s"] = value{Value: median(setups), Unit: "s", N: len(setups)}
	if sp.Durable {
		m["client.recovery_s"] = value{Value: recoveryS}
	}
	res := result{Workload: name, StreamSHA: rep.StreamSHA, Attempted: rep.Attempted,
		Failed: rep.Failed + lost, EndToEnd: fill(m, endToEnd)}
	m["client.error_frac"] = value{Value: ratio(float64(res.Failed), float64(res.Attempted)), N: res.Attempted}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if cfg.traced {
		lj := job
		lj.Mode, lj.Dir = "ladder", cfg.dir
		lrep, err := runChild(lj)
		if err != nil {
			return result{}, fmt.Errorf("ladder: %w", err)
		}
		for k, v := range lrep.Metrics {
			m[k] = v
		}
		if lrep.StreamSHA != rep.StreamSHA {
			return result{}, fmt.Errorf("ladder replayed stream %s, window %s", lrep.StreamSHA, rep.StreamSHA)
		}
		res.Attempted += lrep.Attempted
		res.Failed += lrep.Failed
		res.Correct = res.Correct && lrep.LadderOK && lrep.Failed == 0
		res.PerLayer = fill(m, perLayer)
	} else {
		// Untraced, the per-layer table still shows what the window
		// itself measured: the client.* class metrics and the counts.
		res.PerLayer = metrics{}
		for _, d := range perLayer {
			if v, measured := m[d.Name]; measured {
				v.Unit = d.Unit
				res.PerLayer[d.Name] = v
			}
		}
	}
	return res, nil
}

// runDurable runs dml_durable's window child, SIGKILLs it while it is
// still issuing DML, times recovery, and checks the recovered table
// against the generator's model replayed to the last acknowledgement.
// SIGKILL keeps the operating system's cache, so this checks the
// commit protocol and not the device; crash_test.go discards unflushed
// writes.
func runDurable(sp spec, job childJob) (rep childReport, recoveryS float64, lost int, err error) {
	cmd, out, err := spawn(job)
	if err != nil {
		return rep, 0, 0, err
	}
	if rep, err = readReport(out); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return rep, 0, 0, err
	}
	acked := rep.Acked
	// Let the child run on, then kill it mid-stream. Every complete line
	// left in the pipe is an acknowledgement its client had received.
	timer := time.AfterFunc(300*time.Millisecond, func() { _ = cmd.Process.Kill() })
	defer timer.Stop()
	for {
		line, err := out.ReadString('\n')
		if err != nil {
			break // the pipe closes when the killed child is gone
		}
		var conn, n int
		if _, err := fmt.Sscanf(line, "ack %d %d", &conn, &n); err == nil && conn >= 0 && conn < numConns {
			acked[conn] = max(acked[conn], n)
		}
	}
	_ = cmd.Wait() // reports the kill; the exit status carries nothing else

	t0 := time.Now()
	db, err := repro.OpenExisting(sp.options(job.Dir, job.Window))
	recoveryS = time.Since(t0).Seconds()
	if err != nil {
		return rep, recoveryS, 0, fmt.Errorf("recovery: %w", err)
	}
	defer db.Close()
	got, _, err := db.Table("t").QueryRange("a", int64(0), int64(math.MaxInt64))
	if err != nil {
		return rep, recoveryS, 0, fmt.Errorf("read back: %w", err)
	}
	actual := make(map[int32]int64, len(got))
	for _, r := range got {
		p, _ := r.String("payload")
		a, _ := r.Int64("a")
		id, ok := payloadID(p)
		if _, dup := actual[id]; !ok || dup {
			lost++
			continue
		}
		actual[id] = a
	}

	// Replay the generator to each connection's last acknowledged
	// statement (before) and one statement further (after): that next
	// statement was in flight when the process died, so each of its rows
	// may be in either state.
	before, after := map[int32]int64{}, map[int32]int64{}
	collect := func(dst map[int32]int64, ss [numConns]*stream) {
		for _, s := range ss {
			for _, rs := range s.byA {
				for _, r := range rs {
					dst[r.id] = r.a
				}
			}
		}
	}
	ss := newStreams(sp, job.Seed, dataset(job.Seed, sp.Rows))
	for c, s := range ss {
		for s.n < acked[c] {
			s.next()
		}
	}
	collect(before, ss)
	for _, s := range ss {
		s.next()
	}
	collect(after, ss)
	state := func(m map[int32]int64, id int32) int64 {
		if a, ok := m[id]; ok {
			return a
		}
		return -1 // absent
	}
	check := func(id int32) {
		if a := state(actual, id); a != state(before, id) && a != state(after, id) {
			lost++
			fmt.Fprintf(os.Stderr, "recovery: row %d has a=%d, model says %d (or %d if the in-flight statement applied)\n",
				id, a, state(before, id), state(after, id))
		}
	}
	for id := range before {
		check(id)
	}
	for id := range actual {
		if _, seen := before[id]; !seen {
			check(id)
		}
	}
	return rep, recoveryS, lost, nil
}

// bounds reads each end-to-end metric's regression bound from
// BENCHMARK.json.
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	if len(out) == 0 {
		return nil, errors.New("BENCHMARK.json lists no end_to_end metrics")
	}
	return out, nil
}

// aaMode runs the suite n times on the same code and the same seed,
// alternating the workload order, and prints each gated metric's median,
// quartiles and relative spread beside its bound. It fails if a spread
// exceeds the bound.
func aaMode(cfg config, names []string, n int) int {
	if n < 2 {
		fatalf("-aa needs at least 2 runs")
	}
	bound, err := bounds()
	if err != nil {
		fatalf("%v", err)
	}
	samples := map[string]map[string][]float64{}
	for run := 0; run < n; run++ {
		order := append([]string(nil), names...)
		if run%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		doc, ok := suite(cfg, order, io.Discard)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: run %d was not correct\n", run)
			return 1
		}
		for _, r := range doc.Workloads {
			if samples[r.Workload] == nil {
				samples[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.EndToEnd {
				samples[r.Workload][k] = append(samples[r.Workload][k], v.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: A/A run %d/%d done\n", run+1, n)
	}
	fmt.Printf("%-12s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	exit := 0
	for _, name := range names {
		for _, d := range endToEnd {
			xs := samples[name][d.Name]
			q1, q2, q3 := quartiles(xs)
			spread := ratio(q3-q1, q2)
			verdict := ""
			if spread > bound[d.Name] {
				verdict = "  EXCEEDS"
				exit = 1
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				name, d.Name, q1, q2, q3, 100*spread, 100*bound[d.Name], verdict)
		}
	}
	return exit
}
