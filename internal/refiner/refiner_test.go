package refiner

import (
	"strings"
	"testing"
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
	"aptrace/internal/store"
)

// testEnv builds a small sealed store resembling attack A1's neighborhood:
//
//	t=1000: outlook.exe writes C:\mail\invoice.xls
//	t=1100: excel.exe reads C:\mail\invoice.xls
//	t=1200: excel.exe starts java.exe
//	t=1300: java.exe reads C:\Windows\System32\user32.dll (load)
//	t=1400: java.exe sends 8000 bytes to 168.120.11.118:443
//	t=1500: java.exe reads C:\Sensitive\important.doc amount=7000
func testEnv(t testing.TB) (*store.Store, map[string]event.Object) {
	t.Helper()
	s := store.New(nil)
	objs := map[string]event.Object{
		"outlook": event.Process("desktop1", "outlook.exe", 11, 900),
		"excel":   event.Process("desktop1", "excel.exe", 22, 1050),
		"java":    event.Process("desktop1", "java.exe", 33, 1150),
		"xls":     event.File("desktop1", `C:\mail\invoice.xls`),
		"dll":     event.File("desktop1", `C:\Windows\System32\user32.dll`),
		"doc":     event.File("desktop1", `C:\Sensitive\important.doc`),
		"sock":    event.Socket("desktop1", "10.1.1.5", 49002, "168.120.11.118", 443),
	}
	add := func(tm int64, sub, obj string, a event.Action, d event.Direction, amt int64) {
		t.Helper()
		if _, err := s.AddEvent(tm, objs[sub], objs[obj], a, d, amt); err != nil {
			t.Fatal(err)
		}
	}
	add(1000, "outlook", "xls", event.ActWrite, event.FlowOut, 3000)
	add(1100, "excel", "xls", event.ActRead, event.FlowIn, 3000)
	add(1200, "excel", "java", event.ActStart, event.FlowOut, 0)
	add(1300, "java", "dll", event.ActLoad, event.FlowIn, 0)
	add(1400, "java", "sock", event.ActSend, event.FlowOut, 8000)
	add(1500, "java", "doc", event.ActRead, event.FlowIn, 7000)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s, objs
}

func eventAt(t *testing.T, s *store.Store, tm int64) event.Event {
	t.Helper()
	var found event.Event
	s.Scan(tm, tm+1, func(e event.Event) bool { found = e; return false })
	if found.ID == 0 {
		t.Fatalf("no event at t=%d", tm)
	}
	return found
}

func TestCompileProgramStyleScript(t *testing.T) {
	p, err := ParseAndCompile(`
from "04/02/2019" to "05/01/2019"
in "desktop1", "desktop2"
backward ip alert[dst_ip = "168.120.11.118" and subject_name = "java.exe" and action_type = "send"]
 -> proc p[exename = "excel.exe"]
 -> *
where file.path != "*.dll" and time <= 10mins and hop <= 25
output = "./result.dot"`)
	if err != nil {
		t.Fatal(err)
	}
	if p.TimeBudget != 10*time.Minute || p.HopBudget != 25 {
		t.Fatalf("budgets: %v %d", p.TimeBudget, p.HopBudget)
	}
	if !p.EndWildcard || len(p.Chain) != 1 {
		t.Fatalf("chain: wildcard=%v len=%d", p.EndWildcard, len(p.Chain))
	}
	if p.Output != "./result.dot" {
		t.Fatalf("output = %q", p.Output)
	}
	if p.Where == nil || p.Where.NumConstraints() != 1 {
		t.Fatalf("where constraints = %d", p.Where.NumConstraints())
	}
	if !p.HostAllowed("desktop1") || p.HostAllowed("server9") {
		t.Fatal("host constraint wrong")
	}
	// Heuristics: 1 where constraint + 1 intermediate = 2.
	if got := p.NumHeuristics(); got != 2 {
		t.Fatalf("NumHeuristics = %d, want 2", got)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`backward file f[bogus = "x"] -> *`, `unknown field "bogus"`},
		{`backward file f[exename = "x"] -> *`, `unknown field "exename" for node type "file"`},
		{`backward file f[path.sub = "x"] -> *`, "unqualified"},
		{`backward proc f[pid = "abc"] -> *`, "numeric"},
		{`backward file f[event_time = "notatime"] -> *`, "time value"},
		{`backward file f[path = 5] -> *`, "numeric value"},
		{`backward file f[path = true] -> *`, "boolean"},
		{`backward file f[path = 10mins] -> *`, "duration"},
		{`backward file f[path = "/x"] -> * where time <= 10mins or proc.exename = "y"`, "cannot appear under 'or'"},
		{`backward file f[path = "/x"] -> * where time >= 10mins`, "'<' or '<='"},
		{`backward file f[path = "/x"] -> * where time <= 5`, "duration value"},
		{`backward file f[path = "/x"] -> * where hop <= 0`, "positive number"},
		{`backward file f[path = "/x"] -> * where exename = "y"`, "must qualify"},
		{`backward file f[path = "/x"] -> * where widget.a = "y"`, "unknown type qualifier"},
		{`backward file f[path = "/x"] -> * where proc.src.isReadonly = true`, `unknown qualifier "src"`},
		{`backward file f[path = "/x"] -> * where proc.dst.isBogus = true`, "unknown computed attribute"},
		{`backward file f[path = "/x"] -> * where proc.dst.isReadonly = "yes"`, "true/false"},
		{`backward file f[path = "/x"] -> * where proc.dst.isReadonly < true`, "'=' and '!='"},
		{`backward file f[path = "/x"] -> * where proc.a.b.c.d = true`, "too many qualifiers"},
		{`backward file f[path = "/x"] -> * prioritize [type = file or amount >= 5] <- [type = ip]`, "only 'and'"},
		{`backward file f[path = "/x"] -> * prioritize [amount >= size] <- [bogus.x.y = "1"]`, "unknown prioritize field"},
		{`backward file f[path = "/x"] -> * prioritize [amount <= size] <- [type = ip]`, "'>=' or '>'"},
		{`backward file f[path = "/x"] -> * prioritize [src.exename < "m"] <- [type = ip]`, `bdl:1:47: "src.exename" supports only '=' and '!='`},
		{`backward file f[path = "/x"] -> * prioritize [type > file] <- [type = ip]`, `"type" supports only '=' and '!='`},
		{`backward file f[path = "/x"] -> * prioritize [type = file] <- [dst.path >= "/a"]`, `"dst.path" supports only '=' and '!='`},
	}
	for _, tc := range cases {
		_, err := ParseAndCompile(tc.src)
		if err == nil {
			t.Errorf("Compile(%q): no error, want %q", tc.src, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Compile(%q) error = %v, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestMatchStart(t *testing.T) {
	s, _ := testEnv(t)
	p, err := ParseAndCompile(`
backward ip alert[dst_ip = "168.120.11.118" and subject_name = "java.exe" and action_type = "send"] -> *`)
	if err != nil {
		t.Fatal(err)
	}
	send := eventAt(t, s, 1400)
	ok, err := p.MatchStart(send, s)
	if err != nil || !ok {
		t.Fatalf("send event should match start: %v %v", ok, err)
	}
	// A different event must not match.
	read := eventAt(t, s, 1100)
	if ok, _ := p.MatchStart(read, s); ok {
		t.Fatal("excel read must not match the ip start")
	}
}

func TestMatchStartHostConstraint(t *testing.T) {
	s, _ := testEnv(t)
	p, err := ParseAndCompile(`
in "server-*"
backward ip alert[dst_ip = "168.120.11.118"] -> *`)
	if err != nil {
		t.Fatal(err)
	}
	send := eventAt(t, s, 1400)
	if ok, _ := p.MatchStart(send, s); ok {
		t.Fatal("desktop1 must be rejected by in \"server-*\"")
	}
}

func TestFindStart(t *testing.T) {
	s, _ := testEnv(t)
	p, err := ParseAndCompile(`
backward proc j[exename = "java.exe" and subject_name = "excel.exe" and action_type = "start"] -> *`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.FindStart(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != 1200 {
		t.Fatalf("FindStart found event at t=%d, want 1200", got.Time)
	}
	// No match -> error naming the start condition.
	p2, _ := ParseAndCompile(`backward proc j[exename = "doesnotexist.exe"] -> *`)
	if _, err := p2.FindStart(s, s); err == nil || !strings.Contains(err.Error(), "no event matches") {
		t.Fatalf("FindStart err = %v", err)
	}
}

func TestChainMatch(t *testing.T) {
	s, _ := testEnv(t)
	p, err := ParseAndCompile(`
backward ip alert[dst_ip = "168.120.11.118"] -> proc p[exename = "excel.exe"] -> *`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Chain) != 1 || !p.EndWildcard {
		t.Fatalf("chain shape: %d %v", len(p.Chain), p.EndWildcard)
	}
	// The event "excel starts java": its flow source is excel.exe, which
	// should match the chain node.
	startJava := eventAt(t, s, 1200)
	ok, err := p.Chain[0].Match(startJava, startJava.Src(), s, 0, 2000)
	if err != nil || !ok {
		t.Fatalf("excel should match intermediate: %v %v", ok, err)
	}
	// The dll load's source is a file: type mismatch.
	load := eventAt(t, s, 1300)
	if ok, _ := p.Chain[0].Match(load, load.Src(), s, 0, 2000); ok {
		t.Fatal("dll file must not match proc node")
	}
}

func TestWhereFilter(t *testing.T) {
	s, _ := testEnv(t)
	p, err := ParseAndCompile(`
backward ip alert[dst_ip = "168.120.11.118"] -> *
where file.path != "*.dll" and proc.exename != "outlook"`)
	if err != nil {
		t.Fatal(err)
	}
	load := eventAt(t, s, 1300) // java loads user32.dll; src = dll file
	keep, err := p.Where.Keep(load, load.Src(), s, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if keep {
		t.Fatal("*.dll file must be filtered out")
	}
	// excel.exe is a proc and not outlook: kept; also the file condition
	// is vacuous for processes.
	startJava := eventAt(t, s, 1200)
	keep, err = p.Where.Keep(startJava, startJava.Src(), s, 0, 2000)
	if err != nil || !keep {
		t.Fatalf("excel.exe should be kept: %v %v", keep, err)
	}
	// outlook.exe is excluded by the proc condition.
	wr := eventAt(t, s, 1000)
	if keep, _ := p.Where.Keep(wr, wr.Src(), s, 0, 2000); keep {
		t.Fatal("outlook must be filtered out")
	}
	// The doc file is kept (not a dll).
	readDoc := eventAt(t, s, 1500)
	if keep, _ := p.Where.Keep(readDoc, readDoc.Src(), s, 0, 2000); !keep {
		t.Fatal("important.doc should be kept")
	}
}

func TestWhereComputedAttributes(t *testing.T) {
	s, _ := testEnv(t)
	// Exclude events whose destination is a read-only file: the java.exe
	// read of important.doc flows doc -> java, so dst is java (a proc,
	// not read-only). The excel read of invoice.xls flows xls -> excel.
	// outlook's write flows INTO invoice.xls: xls was written so it is
	// not read-only. user32.dll is only loaded: read-only.
	p, err := ParseAndCompile(`
backward ip alert[dst_ip = "x"] -> *
where proc.dst.isReadonly = false`)
	if err != nil {
		t.Fatal(err)
	}
	load := eventAt(t, s, 1300) // flow dst of a FlowIn load is java (proc)
	keep, err := p.Where.Keep(load, load.Src(), s, 0, 2000)
	if err != nil || !keep {
		t.Fatalf("load's dst is a process (not read-only file): keep=%v err=%v", keep, err)
	}
	wr := eventAt(t, s, 1000) // outlook writes xls: dst = xls, not read-only
	if keep, _ := p.Where.Keep(wr, wr.Src(), s, 0, 2000); !keep {
		t.Fatal("write into mutated file: isReadonly=false holds, keep")
	}

	// Now a filter keeping only read-only destinations: the write must be
	// dropped.
	p2, _ := ParseAndCompile(`
backward ip alert[dst_ip = "x"] -> *
where proc.dst.isReadonly = true`)
	if keep, _ := p2.Where.Keep(wr, wr.Src(), s, 0, 2000); keep {
		t.Fatal("mutated file must fail isReadonly=true")
	}
}

func TestWhereBudgetOnly(t *testing.T) {
	p, err := ParseAndCompile(`backward file f[path = "/x"] -> * where time <= 5mins and hop <= 3`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Where != nil {
		t.Fatal("budget-only where must compile to nil filter")
	}
	if p.TimeBudget != 5*time.Minute || p.HopBudget != 3 {
		t.Fatalf("budgets = %v %d", p.TimeBudget, p.HopBudget)
	}
	// Keep on nil filter is always true.
	var w *WhereFilter
	keep, err := w.Keep(event.Event{}, 0, nil, 0, 0)
	if err != nil || !keep {
		t.Fatal("nil filter must keep everything")
	}
}

func TestPriorityRule(t *testing.T) {
	s, _ := testEnv(t)
	p, err := ParseAndCompile(`
backward ip alert[dst_ip = "168.120.11.118"] -> *
prioritize [type = file and src.path = "Sensitive"] <- [type = network and dst.ip = "168.*" and amount >= size]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Prioritize) != 1 {
		t.Fatalf("rules = %d", len(p.Prioritize))
	}
	rule := p.Prioritize[0]
	if !rule.Conserve {
		t.Fatal("amount >= size must set Conserve")
	}
	up := eventAt(t, s, 1500)   // java reads important.doc (7000 bytes)
	down := eventAt(t, s, 1400) // java sends 8000 bytes to 168.120.11.118
	if !rule.Up.Match(up, s) {
		t.Fatal("up pattern must match the sensitive read")
	}
	if !rule.Down.Match(down, s) {
		t.Fatal("down pattern must match the network send")
	}
	if !rule.BoostEdge(up, down, s) {
		t.Fatal("BoostEdge must hold: 8000 sent >= 7000 read")
	}
	// Conservation violated: pretend the send was smaller.
	small := down
	small.Amount = 100
	if rule.BoostEdge(up, small, s) {
		t.Fatal("BoostEdge must fail when sent < read")
	}
	// The dll load must not match the up pattern.
	load := eventAt(t, s, 1300)
	if rule.Up.Match(load, s) {
		t.Fatal("dll load is not a sensitive-file read")
	}
}

func TestPatternSemantics(t *testing.T) {
	cases := []struct {
		pat, val string
		want     bool
	}{
		{"*.dll", `C:\Windows\System32\user32.dll`, true},
		{"*.dll", `C:\data\report.doc`, false},
		{"explorer", "explorer.exe", true},  // unanchored, as A1 requires
		{"EXPLORER", "explorer.exe", true},  // case-insensitive
		{"^java\\.exe$", "java.exe", false}, // regex metachars are literal in glob mode
		{"java.exe", "java.exe", true},
		{"java?exe", "javaXexe", true},
		{"10.0.*", "10.0.3.7", true},
	}
	for _, tc := range cases {
		if got := CompilePattern(tc.pat).Match(tc.val); got != tc.want {
			t.Errorf("Pattern(%q).Match(%q) = %v, want %v", tc.pat, tc.val, got, tc.want)
		}
	}
}

func TestDelta(t *testing.T) {
	v1, _ := bdl.Parse(`backward ip a[dst_ip = "1.2.3.4"] -> *`)
	v2, _ := bdl.Parse(`backward ip a[dst_ip = "1.2.3.4"] -> * where file.path != "*.dll"`)
	v3, _ := bdl.Parse(`backward ip a[dst_ip = "1.2.3.4"] -> proc p[exename = "java"] -> *`)
	v4, _ := bdl.Parse(`backward ip a[dst_ip = "9.9.9.9"] -> *`)

	if got := Delta(v1, v2); got != Resume {
		t.Errorf("adding where: %v, want resume", got)
	}
	if got := Delta(v1, v3); got != Repropagate {
		t.Errorf("adding intermediate: %v, want repropagate", got)
	}
	if got := Delta(v1, v4); got != Restart {
		t.Errorf("new start: %v, want restart", got)
	}
	if got := Delta(nil, v1); got != Restart {
		t.Errorf("no previous script: %v, want restart", got)
	}
	for a, want := range map[ResumeAction]string{Restart: "restart", Repropagate: "repropagate", Resume: "resume"} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestRange(t *testing.T) {
	p, _ := ParseAndCompile(`from "01/01/2019" to "02/01/2019" backward file f[path="/x"] -> *`)
	from, to := p.Range(5, 10)
	if from != p.From || to != p.To {
		t.Fatal("explicit range must win")
	}
	p2, _ := ParseAndCompile(`backward file f[path="/x"] -> *`)
	from, to = p2.Range(5, 10)
	if from != 5 || to != 11 {
		t.Fatalf("default range = [%d,%d), want [5,11)", from, to)
	}
}

func TestDeltaDirectionChange(t *testing.T) {
	back, _ := bdl.Parse(`backward ip a[dst_ip = "1.2.3.4"] -> *`)
	fwd, _ := bdl.Parse(`forward ip a[dst_ip = "1.2.3.4"] -> *`)
	if got := Delta(back, fwd); got != Restart {
		t.Fatalf("flipping direction: %v, want restart", got)
	}
	if got := Delta(fwd, fwd); got != Resume {
		t.Fatalf("identical forward scripts: %v, want resume", got)
	}
}

func TestCompileForward(t *testing.T) {
	p, err := ParseAndCompile(`forward file f[path = "/tmp/x"] -> proc q[exename = "sh"] -> *`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Forward {
		t.Fatal("Forward flag not set")
	}
	if len(p.Chain) != 1 || !p.EndWildcard {
		t.Fatalf("chain: %d wildcard=%v", len(p.Chain), p.EndWildcard)
	}
}
