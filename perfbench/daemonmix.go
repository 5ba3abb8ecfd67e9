package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/valueflow/usher"
	"github.com/valueflow/usher/internal/interp"
	"github.com/valueflow/usher/internal/module"
	"github.com/valueflow/usher/internal/workload"
)

// The daemon-mix schedule. A run is made of whole rounds, each against a
// freshly started daemon and each sending the same requests: the opening
// (first submissions of the paper programs and the module project), then
// cyclesPerRound cycles. Each cycle resubmits the paper programs in a
// fixed cyclic order, with editsPerCycle one-line edits of seeded project
// libraries and newPerCycle first submissions of paper programs, the next
// ones in the same cyclic order, spread evenly over the cycle. Such a
// later first submission carries a trailing comment that makes its text,
// and so its cache key, new; without them a round would see only the
// opening's sixteen first submissions, all on a cold daemon. Between two
// resubmissions of one program fall 23 other programs, whose live size
// (about 140 MB for 14 paper programs and 10 to 12 MB per edit or first
// submission) fits the 256 MiB cache budget. One closed-loop client sends
// them (drive): with a second one, on a host of two CPUs, two requests, the
// daemon's GC and the benchmark contend for the CPUs, so that latency
// measures the scheduler more than the daemon.
const (
	cyclesPerRound = 2
	editsPerCycle  = 6
	newPerCycle    = 3
	// tailPct is service.tail_ms's percentile; a run of at least 100
	// requests leaves ten or more beyond it.
	tailPct = 90
)

// Request classes.
const (
	classNew      = "new"
	classResubmit = "resubmit"
	classEdit     = "edit"
)

// program is one distinct program the schedule submits: a paper program
// or one version of the module project.
type program struct {
	name string
	body []byte
	// Paper programs: the source and its planted use (0 if none).
	file, src string
	bugLine   int
	// Project versions: the module set.
	files []module.File
	// A renamed program (a paper program with a trailing comment) shares
	// the expected answer of the program it renames.
	renames *program
}

// sent is one scheduled request.
type sent struct {
	class string
	prog  *program
}

// reply is one answered request.
type reply struct {
	sent
	round   int
	latency float64 // client-side seconds
	status  int
	body    []byte
	resp    analyzeResponse
	err     error
}

// analyzeResponse mirrors the /analyze response fields the benchmark
// reads.
type analyzeResponse struct {
	Modules *struct {
		Reused   int `json:"reused"`
		Compiled int `json:"compiled"`
	} `json:"modules"`
	Configs []struct {
		Config         string `json:"config"`
		StaticProps    int    `json:"static_props"`
		StaticChecks   int    `json:"static_checks"`
		MFCsSimplified int    `json:"mfcs_simplified"`
		Redirected     int    `json:"redirected"`
		ChecksElided   int    `json:"checks_elided"`
		Run            *struct {
			Exit         int64 `json:"exit"`
			Steps        int64 `json:"steps"`
			ShadowProps  int64 `json:"shadow_props"`
			ShadowChecks int64 `json:"shadow_checks"`
			Warnings     []struct {
				Fn    string `json:"fn"`
				Label int    `json:"label"`
				Pos   string `json:"pos"`
			} `json:"warnings"`
			Error string `json:"error"`
		} `json:"run"`
	} `json:"configs"`
	Phases []struct {
		Phase   string  `json:"phase"`
		WallSec float64 `json:"wall_sec"`
	} `json:"phases"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// daemonStats mirrors the /stats fields the benchmark reads.
type daemonStats struct {
	UptimeSec  float64 `json:"uptime_sec"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Cache      struct {
		Hits, Misses, Evictions int64
		Bytes                   int64
	} `json:"cache"`
	HeapBytes uint64 `json:"heap_bytes"`
}

// mixInputs is the generated schedule.
type mixInputs struct {
	opening []sent
	cycles  []sent
	// project is the module project's base version; bugSites are the
	// planted "file:line" sites every version reports.
	project  *program
	bugSites map[string]bool
}

// plantedFieldUse is the statement of a buggy lib that branches on the
// uninitialized field (workload's libSource).
const plantedFieldUse = "if (n->c > 0)"

func paperBody(file, src string) ([]byte, error) {
	return json.Marshal(map[string]any{
		"file": file, "source": src, "configs": []string{"Usher"}, "level": "O0+IM", "run": true,
	})
}

func filesBody(files []module.File) ([]byte, error) {
	entries := make([]map[string]string, len(files))
	for i, f := range files {
		entries[i] = map[string]string{"name": f.Name, "source": f.Source}
	}
	return json.Marshal(map[string]any{
		"files": entries, "configs": []string{"Usher"}, "level": "O0+IM", "run": true,
	})
}

// mixSchedule generates the programs and one round's schedule from the
// seed.
func mixSchedule(smoke bool, seed int64) (*mixInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	paper, err := paperInputs(paperProfiles(smoke), seed)
	if err != nil {
		return nil, err
	}
	proj := workload.DefaultModuleProject
	if smoke {
		proj = workload.ModuleProject{Name: "modproj-smoke", Libs: 13, LibsPerAgg: 6, BugEvery: 13}
	}
	gen := proj.GenerateModules()
	base := make([]module.File, len(gen))
	in := &mixInputs{bugSites: make(map[string]bool)}
	for i, f := range gen {
		base[i] = module.File{Name: f.Name, Source: f.Source}
		if line := lineOf(f.Source, plantedFieldUse); line > 0 {
			in.bugSites[fmt.Sprintf("%s:%d", f.Name, line)] = true
		}
	}
	if proj.BugEvery > 0 && len(in.bugSites) != proj.Libs/proj.BugEvery {
		return nil, fmt.Errorf("found %d planted sites in the project, want %d", len(in.bugSites), proj.Libs/proj.BugEvery)
	}
	body, err := filesBody(base)
	if err != nil {
		return nil, err
	}
	in.project = &program{name: proj.Name, body: body, files: base}

	// The opening and the cycles follow the profiles' fixed order, and
	// every cycle places its requests alike: the seed picks the edited
	// libraries and the later first submissions' comments.
	sort.Slice(paper, func(i, j int) bool { return profileIndex(paper[i].name) < profileIndex(paper[j].name) })
	var papers []*program
	for _, p := range paper {
		body, err := paperBody(p.file, p.src)
		if err != nil {
			return nil, err
		}
		papers = append(papers, &program{name: p.name, body: body, file: p.file, src: p.src, bugLine: p.bugLine})
	}
	for _, p := range papers {
		in.opening = append(in.opening, sent{classNew, p})
	}
	in.opening = append(in.opening, sent{classNew, in.project})
	edits, renamed := 0, 0
	for c := 0; c < cyclesPerRound; c++ {
		next := 0
		for _, class := range spread(map[string]int{classResubmit: len(papers), classEdit: editsPerCycle, classNew: newPerCycle}) {
			var p *program
			switch class {
			case classResubmit:
				p = papers[next]
				next++
			case classEdit:
				edits++
				if p, err = editVersion(gen, fmt.Sprintf("lib_%02d", rng.Intn(proj.Libs)), edits+1); err != nil {
					return nil, err
				}
			case classNew:
				if p, err = renamedVersion(papers[renamed%len(papers)], seed, renamed+1); err != nil {
					return nil, err
				}
				renamed++
			}
			in.cycles = append(in.cycles, sent{class, p})
		}
	}
	return in, nil
}

// spread orders count[c] requests of each class c so that every class is
// spread evenly over the cycle.
func spread(count map[string]int) []string {
	classes := []string{classResubmit, classEdit, classNew}
	total := 0
	for _, n := range count {
		total += n
	}
	placed := map[string]int{}
	out := make([]string, 0, total)
	for i := 1; i <= total; i++ {
		best, lag := "", -1.0
		for _, c := range classes {
			if l := float64(i*count[c])/float64(total) - float64(placed[c]); placed[c] < count[c] && l > lag {
				best, lag = c, l
			}
		}
		placed[best]++
		out = append(out, best)
	}
	return out
}

// renamedVersion is p with a trailing comment that makes its text new to
// the daemon; the program, its lines and its answer are unchanged.
func renamedVersion(p *program, seed int64, k int) (*program, error) {
	src := fmt.Sprintf("%s\n// submission %d.%d\n", p.src, seed, k)
	body, err := paperBody(p.file, src)
	if err != nil {
		return nil, err
	}
	return &program{name: fmt.Sprintf("%s#%d", p.name, k), body: body, file: p.file, src: src, bugLine: p.bugLine, renames: p}, nil
}

// editVersion is the project with lib's tweak constant set to value.
func editVersion(gen []workload.ModuleFile, lib string, value int) (*program, error) {
	edited, ok := workload.Edit(gen, lib, value)
	if !ok {
		return nil, fmt.Errorf("edit of %s did not apply", lib)
	}
	files := make([]module.File, len(edited))
	for i, f := range edited {
		files[i] = module.File{Name: f.Name, Source: f.Source}
	}
	body, err := filesBody(files)
	if err != nil {
		return nil, err
	}
	return &program{name: fmt.Sprintf("%s=%d", lib, value), body: body, files: files}, nil
}

func profileIndex(name string) int {
	for i, p := range workload.Profiles {
		if p.Name == name {
			return i
		}
	}
	return len(workload.Profiles)
}

// daemon is a running usherd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon starts usherd at its default options on a free loopback
// port and waits until it answers /healthz.
func startDaemon(path string) (*daemon, error) {
	if path == "" {
		return nil, errors.New("no usherd binary given (-usherd)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(path, "-addr", addr)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start usherd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	for start := time.Now(); time.Since(start) < 30*time.Second; time.Sleep(time.Millisecond) {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("usherd exited during start: %v", err)
		default:
		}
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, errors.New("usherd did not answer /healthz within 30s")
}

// stop asks the daemon to drain and exit, kills it if it has not exited
// within 30 s, and waits for it.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB is the stopped daemon's peak resident set in MiB, from the
// resource usage its wait reported.
func (d *daemon) peakRSSMB() float64 {
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return 0
}

func (d *daemon) get(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if s, ok := v.(*string); ok {
		b, err := io.ReadAll(resp.Body)
		*s = string(b)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// gcNow reads the daemon's /stats and, from the runtime.MemStats block of
// its heap profile, its completed GC cycles and GC CPU seconds:
// GCCPUFraction is the GC's share of GOMAXPROCS × uptime.
func (d *daemon) gcNow() (st daemonStats, cycles, cpu float64, err error) {
	if err := d.get("/stats", &st); err != nil {
		return st, 0, 0, err
	}
	var text string
	if err := d.get("/debug/pprof/heap?debug=1", &text); err != nil {
		return st, 0, 0, err
	}
	field := func(name string) (float64, error) {
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, "# "+name+" = "); ok {
				return strconv.ParseFloat(strings.TrimSpace(v), 64)
			}
		}
		return 0, fmt.Errorf("heap profile has no %s", name)
	}
	if cycles, err = field("NumGC"); err != nil {
		return st, 0, 0, err
	}
	frac, err := field("GCCPUFraction")
	return st, cycles, frac * st.UptimeSec * float64(st.GOMAXPROCS), err
}

func runDaemonMix(opts options, log *os.File) (*result, error) {
	var in *mixInputs
	var d *daemon
	setupS, err := setup(func() (err error) {
		if in, err = mixSchedule(opts.smoke, opts.seed); err != nil {
			return err
		}
		d, err = startDaemon(opts.usherd)
		return err
	}, func() { d.stop() })
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var replies []reply
	var ends []daemonStats
	var rssMB []float64
	var gcCycles, gcCPU, measured float64
	rounds := 0
	for ; moreRounds(measured, rounds, opts.seconds); rounds++ {
		if d == nil {
			if d, err = startDaemon(opts.usherd); err != nil {
				return nil, err
			}
		}
		r, err := mixRound(d, in, rounds, tr)
		if err != nil {
			return nil, err
		}
		replies = append(replies, r.replies...)
		ends = append(ends, r.end)
		gcCycles += r.gcCycles
		gcCPU += r.gcCPU
		measured += r.elapsed
		d.stop()
		rssMB = append(rssMB, d.peakRSSMB())
		d = nil
	}

	var o ops
	checkMix(replies, in, &o)
	// An operation is one distinct request, a class and a program: its
	// figure is its median latency over the run, the resubmissions of a
	// program in every cycle and round together.
	byClass := map[string][]float64{}
	var all []float64
	perOp := series{}
	for _, r := range replies {
		byClass[r.class] = append(byClass[r.class], 1000*r.latency)
		all = append(all, 1000*r.latency)
		perOp.add("op_ms", r.class+" "+r.prog.name, 1000*r.latency)
	}
	fmt.Fprintf(log, "daemon-mix: %d rounds, %d requests (%d new, %d resubmissions, %d edits) in %.2f s, seed %d\n",
		rounds, len(replies), len(byClass[classNew]), len(byClass[classResubmit]), len(byClass[classEdit]), measured, opts.seed)
	if len(all) < 100 {
		fmt.Fprintf(log, "warning: %d requests leave fewer than ten beyond p%d\n", len(all), tailPct)
	}
	e2e := endToEnd(setupS, float64(len(replies))/measured, median(perOp.opMedians("op_ms")))
	if !opts.trace {
		return o.finish(log, e2e), nil
	}
	printMetrics(log, "traced end-to-end", e2e)
	vals := mixLayers(replies, ends)
	vals["service.tail_ms"] = percentile(all, tailPct)
	vals["mem.peak_rss_mb"] = median(rssMB)
	vals["gc.cycles"] = gcCycles
	vals["gc.cpu_s"] = gcCPU
	layers := layerMetrics(vals)
	mixReport(log, replies, layers)
	if err := tr.report(log, opts); err != nil {
		return nil, err
	}
	return o.finish(log, layers), nil
}

// round is one round's outcome: the replies, the daemon's /stats at its
// end, its GC cycles and GC CPU seconds during it, and its elapsed
// seconds.
type round struct {
	replies         []reply
	end             daemonStats
	gcCycles, gcCPU float64
	elapsed         float64
}

// mixRound sends one round's requests to d.
func mixRound(d *daemon, in *mixInputs, n int, tr *tracer) (round, error) {
	_, cycles0, cpu0, err := d.gcNow()
	if err != nil {
		return round{}, err
	}
	start := time.Now()
	replies := drive(d, in.opening, n, tr)
	replies = append(replies, drive(d, in.cycles, n, tr)...)
	elapsed := since(start)
	end, cycles1, cpu1, err := d.gcNow()
	if err != nil {
		return round{}, err
	}
	return round{replies, end, cycles1 - cycles0, cpu1 - cpu0, elapsed}, nil
}

// drive sends reqs in order from one closed-loop client, each once the
// previous one is answered, and returns the replies, marked as round n's.
func drive(d *daemon, reqs []sent, n int, tr *tracer) []reply {
	client := &http.Client{Timeout: 120 * time.Second}
	replies := make([]reply, len(reqs))
	for i, req := range reqs {
		replies[i] = post(client, d.base, req, tr)
		replies[i].round = n
	}
	return replies
}

// post sends one request and decodes its answer.
func post(client *http.Client, base string, s sent, tr *tracer) reply {
	op := tr.begin(0, "op", s.prog.name)
	defer tr.end(op)
	r := reply{sent: s}
	id := tr.begin(op, "service.request", s.prog.name)
	t0 := time.Now()
	resp, err := client.Post(base+"/analyze", "application/json", bytes.NewReader(s.prog.body))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.latency = since(t0)
	tr.end(id)
	if err != nil {
		r.err = err
		return r
	}
	if r.status == http.StatusOK {
		r.err = json.Unmarshal(r.body, &r.resp)
	}
	return r
}

// expected is an answer computed in-process, apart from the daemon.
type expected struct {
	exit int64
	// Project versions only: the flattened single file's Usher answer.
	flat *flatAnswer
}

type flatAnswer struct {
	staticProps, staticChecks, mfcs, redirected, elided int
	exit, steps, props, checks                          int64
	sites                                               []string // "fn@label", sorted
}

// checkMix checks every reply and counts it as one operation.
func checkMix(replies []reply, in *mixInputs, o *ops) {
	type key struct {
		round int
		prog  *program
	}
	want := map[*program]*expected{}
	first := map[key][]byte{}
	for _, r := range replies {
		if r.class != classResubmit {
			first[key{r.round, r.prog}] = r.body
		}
	}
	for _, r := range replies {
		var fails []string
		switch {
		case r.err != nil:
			fails = []string{r.err.Error()}
		case r.status != http.StatusOK:
			fails = []string{fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))}
		default:
			p := r.prog
			if p.renames != nil {
				p = p.renames
			}
			e, ok := want[p]
			if !ok {
				var err error
				if e, err = expect(p); err != nil {
					fails = append(fails, err.Error())
				}
				want[p] = e
			}
			if e != nil {
				fails = append(fails, checkReply(r, e, in)...)
			}
			if r.class == classResubmit {
				fails = append(fails, checkResubmission(first[key{r.round, r.prog}], r.body)...)
			}
		}
		o.record(r.class+" "+r.prog.name, fails)
	}
}

// expect computes a program's answer in-process: the native exit value
// and, for a project version, the Usher answer of its module.Flatten
// single file.
func expect(p *program) (*expected, error) {
	file, src := p.file, p.src
	if p.files != nil {
		flat, err := module.Flatten(p.files)
		if err != nil {
			return nil, fmt.Errorf("flatten: %w", err)
		}
		file, src = p.name+".c", flat
	}
	prog, err := compileSource(file, src)
	if err != nil {
		return nil, err
	}
	native, err := usher.RunNative(prog, usher.RunOptions{MaxSteps: 50_000_000})
	if err != nil {
		return nil, fmt.Errorf("native run: %w", err)
	}
	e := &expected{exit: native.Exit.Int}
	if p.files == nil {
		return e, nil
	}
	an, err := usher.Analyze(prog, usher.ConfigUsherFull)
	if err != nil {
		return nil, err
	}
	res, err := an.Run(usher.RunOptions{MaxSteps: 50_000_000})
	if err != nil {
		return nil, fmt.Errorf("flattened run: %w", err)
	}
	st := an.StaticStats()
	e.flat = &flatAnswer{
		staticProps: st.Props, staticChecks: st.Checks,
		mfcs: an.MFCsSimplified, redirected: an.Redirected, elided: an.ChecksElided,
		exit: res.Exit.Int, steps: res.Steps, props: res.ShadowProps, checks: res.ShadowChecks,
		sites: siteStrings(res.ShadowWarnings),
	}
	return e, nil
}

func siteStrings(ws []interp.Warning) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = fmt.Sprintf("%s@%d", w.Fn, w.Label)
	}
	sort.Strings(out)
	return out
}

// checkReply checks one answer: its warnings against the generator's
// planted sites, its exit value against the native run, and a project
// version against its flattened single file.
func checkReply(r reply, e *expected, in *mixInputs) []string {
	if len(r.resp.Configs) != 1 || r.resp.Configs[0].Config != "Usher" || r.resp.Configs[0].Run == nil {
		return []string{"answer lacks the Usher configuration's run"}
	}
	c := r.resp.Configs[0]
	run := c.Run
	var out []string
	if run.Error != "" {
		out = append(out, "run error: "+run.Error)
	}
	if run.Exit != e.exit {
		out = append(out, fmt.Sprintf("exit %d, native exit %d", run.Exit, e.exit))
	}
	got := map[string]bool{}
	for _, w := range run.Warnings {
		got[fileLine(w.Pos)] = true
	}
	truth := in.bugSites
	if r.prog.files == nil {
		truth = map[string]bool{}
		if r.prog.bugLine > 0 {
			truth[fmt.Sprintf("%s:%d", r.prog.file, r.prog.bugLine)] = true
		}
	}
	if len(run.Warnings) != len(truth) || !equalNames(got, truth) {
		out = append(out, fmt.Sprintf("warnings at %v, planted %v", keys(got), keys(truth)))
	}
	if f := e.flat; f != nil {
		var sites []string
		for _, w := range run.Warnings {
			sites = append(sites, fmt.Sprintf("%s@%d", w.Fn, w.Label))
		}
		sort.Strings(sites)
		a := flatAnswer{
			staticProps: c.StaticProps, staticChecks: c.StaticChecks,
			mfcs: c.MFCsSimplified, redirected: c.Redirected, elided: c.ChecksElided,
			exit: run.Exit, steps: run.Steps, props: run.ShadowProps, checks: run.ShadowChecks,
			sites: sites,
		}
		if !reflect.DeepEqual(a, *f) {
			out = append(out, fmt.Sprintf("answer %+v differs from the flattened single file's %+v", a, *f))
		}
	}
	return out
}

// fileLine drops the column of a "file:line:col" position.
func fileLine(pos string) string {
	if i := strings.LastIndexByte(pos, ':'); i >= 0 {
		return pos[:i]
	}
	return pos
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkResubmission checks that a resubmission answers exactly as the
// first submission did, apart from the fields that describe the request
// rather than the program.
func checkResubmission(first, again []byte) []string {
	if first == nil {
		return []string{"no first submission to compare with"}
	}
	var a, b map[string]any
	if err := json.Unmarshal(first, &a); err != nil {
		return []string{"first submission: " + err.Error()}
	}
	if err := json.Unmarshal(again, &b); err != nil {
		return []string{err.Error()}
	}
	for _, k := range []string{"cache_hit", "phases", "elapsed_ms"} {
		delete(a, k)
		delete(b, k)
	}
	if !reflect.DeepEqual(a, b) {
		return []string{"answer differs from the first submission's"}
	}
	return nil
}

// analysisPhases maps the pipeline phases of the static analysis to the
// per-layer metric that sums their reported time. An /analyze response
// lists the passes the request ran after its program was compiled, so
// today it reports no frontend pass (see README.md).
var analysisPhases = map[string]string{
	"pointer": "pointer.s", "memssa": "memssa.s", "vfg": "vfg.build_s", "summary": "vfg.resolve_s",
	"resolve": "vfg.resolve_s", "opt": "vfgopt.s", "instrument": "instrument.s",
}

// mixLayers derives the per-layer values from the responses and each
// round's closing /stats: cache counts summed over rounds, resident sizes
// as the median over rounds.
func mixLayers(replies []reply, ends []daemonStats) map[string]float64 {
	vals := map[string]float64{}
	elapsed := map[string][]float64{}
	var transport, overhead []float64
	var analyzeS, reportedS, elapsedS, steps, props, checks, compiled, reused float64
	for _, r := range replies {
		if r.status != http.StatusOK {
			continue
		}
		resp := r.resp
		elapsed[r.class] = append(elapsed[r.class], resp.ElapsedMS)
		transport = append(transport, 1000*r.latency-resp.ElapsedMS)
		elapsedS += resp.ElapsedMS / 1000
		for _, ph := range resp.Phases {
			reportedS += ph.WallSec
			if name, ok := analysisPhases[ph.Phase]; ok {
				analyzeS += ph.WallSec
				vals[name] += ph.WallSec
			}
		}
		for _, c := range resp.Configs {
			vals["vfgopt.redirected"] += float64(c.Redirected)
			if c.Run != nil && c.Run.Steps > 0 {
				steps += float64(c.Run.Steps)
				props += float64(c.Run.ShadowProps)
				checks += float64(c.Run.ShadowChecks)
				overhead = append(overhead, overheadPct(c.Run.ShadowProps, c.Run.ShadowChecks, c.Run.Steps))
			}
		}
		if r.class == classEdit && resp.Modules != nil {
			compiled += float64(resp.Modules.Compiled)
			reused += float64(resp.Modules.Reused)
		}
	}
	var hits, misses, evictions float64
	var chargedMB, heapMB []float64
	for _, st := range ends {
		hits += float64(st.Cache.Hits)
		misses += float64(st.Cache.Misses)
		evictions += float64(st.Cache.Evictions)
		chargedMB = append(chargedMB, float64(st.Cache.Bytes)/mib)
		heapMB = append(heapMB, float64(st.HeapBytes)/mib)
	}
	for name, v := range map[string]float64{
		"service.new_ms":            median(elapsed[classNew]),
		"service.resubmit_ms":       median(elapsed[classResubmit]),
		"service.edit_ms":           median(elapsed[classEdit]),
		"service.transport_ms":      median(transport),
		"service.analyze_s":         analyzeS,
		"service.rest_s":            elapsedS - reportedS,
		"service.heap_mb":           median(heapMB),
		"cache.hits":                hits,
		"cache.misses":              misses,
		"cache.evictions":           evictions,
		"cache.hit_ratio":           hits / max(hits+misses, 1),
		"cache.charged_mb":          median(chargedMB),
		"module.compiled":           compiled,
		"module.reused":             reused,
		"interp.steps":              steps,
		"interp.usher_props":        props,
		"interp.usher_checks":       checks,
		"interp.usher_overhead_pct": mean(overhead),
	} {
		vals[name] = v
	}
	return vals
}

// mixReport splits the requests' summed client latency into what the
// responses attribute to the static analysis, the rest of the daemon's
// work (compiling, the dynamic run and the service itself), and
// transport.
func mixReport(w io.Writer, replies []reply, layers map[string]metric) {
	total, transport := 0.0, 0.0
	for _, r := range replies {
		total += r.latency
		if r.status == http.StatusOK {
			transport += r.latency - r.resp.ElapsedMS/1000
		}
	}
	fmt.Fprintf(w, "daemon-mix latency split over %d requests (%.3f s summed):\n", len(replies), total)
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"analyze (reported phases)", layers["service.analyze_s"].Value},
		{"compile + run + service", layers["service.rest_s"].Value},
		{"transport", transport},
	} {
		fmt.Fprintf(w, "  %-28s %8.3f s  %5.1f%%\n", p.name, p.v, pct(p.v, total))
	}
}
