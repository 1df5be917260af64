package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"strings"
	"testing"

	"upim"
)

// invoke runs the dispatcher in process and returns its exit code, stdout
// and stderr.
func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"upimulator"}} {
		code, stdout, stderr := invoke(args...)
		if code != 2 || stdout != "" {
			t.Errorf("upim %v: exit %d, stdout %q; want exit 2 and no stdout", args, code, stdout)
		}
		for _, s := range subcommands {
			if !strings.Contains(stderr, "\n  "+s.name+" ") {
				t.Errorf("upim %v: usage does not list %q:\n%s", args, s.name, stderr)
			}
		}
	}
	if len(subcommands) != 9 {
		t.Errorf("%d subcommands, want 9", len(subcommands))
	}
}

// TestFlagsGolden pins every subcommand's flag set — name, type, default
// and usage string — to the listing the five standalone commands upim
// replaced printed, so no flag is silently added, dropped or reworded.
func TestFlagsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, s := range subcommands {
		code, stdout, stderr := invoke(s.name, "-h")
		if code != 0 || stdout != "" {
			t.Errorf("upim %s -h: exit %d, stdout %q; want exit 0 and no stdout", s.name, code, stdout)
		}
		_, flags, ok := strings.Cut(stderr, "\nFlags:\n")
		if !ok {
			t.Fatalf("upim %s -h has no Flags section:\n%s", s.name, stderr)
		}
		got.WriteString("== upim " + s.name + "\n" + flags)
	}
	if got.String() != string(want) {
		t.Errorf("flag sets drifted from testdata/flags.golden:\n%s", got.String())
	}
}

// TestFlagErrors covers flag misuse that must fail fast with one
// "upim <subcommand>: ..." line and exit 2, before anything runs.
func TestFlagErrors(t *testing.T) {
	store := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"figures", "-exp", "table1", "-scale", "bogus"}, `unknown scale "bogus"`},
		{[]string{"suite", "-scale", "bogus"}, `unknown scale "bogus"`},
		{[]string{"run", "-scale", "bogus"}, `unknown scale "bogus"`},
		{[]string{"serve", "-scale", "bogus"}, `unknown scale "bogus"`},
		{[]string{"pathfind", "-scale", "bogus"}, `unknown scale "bogus"`},
		{[]string{"calibrate", "-scale", "bogus"}, `unknown scale "bogus"`},
		{[]string{"coordinate", "-store", store, "-scale", "bogus"}, `unknown scale "bogus"`},
		{[]string{"asm", "-mode", "bogus", "testdata/store.S"}, `unknown mode "bogus"`},
		{[]string{"serve", "-policies", "fifo"}, "-policies only affects the -loads sweep"},
		{[]string{"serve", "-policies", "fifo,bogus", "-loads", "0.5"}, `unknown policy "bogus"`},
		{[]string{"figures", "-exp", "table1", "-eps", "0.1"}, "-eps sets the -check tolerance"},
		{[]string{"serve", "-eps", "0.1"}, "-eps sets the -check tolerance"},
		{[]string{"pathfind", "-eps", "0.1"}, "-eps sets the -check tolerance"},
		{[]string{"figures", "-check", "-bench", "VA"}, "drop -bench"},
		{[]string{"work"}, "-connect is required"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		prefix := "upim " + tc.args[0] + ": "
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, prefix) ||
			strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("upim %v: exit %d, stdout %q, stderr %q; want exit 2 and one %q line naming %q",
				tc.args, code, stdout, stderr, prefix, tc.want)
		}
	}
}

// TestServeRejectsPolicyBeforeRunning runs serve with an already
// cancelled context: had it started a simulation it would exit 1 with
// "context canceled", so exit 2 proves -policies was validated first.
func TestServeRejectsPolicyBeforeRunning(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	c := &cli{name: "upim serve", ctx: ctx, stdout: &out, stderr: &errb,
		fs: flag.NewFlagSet("upim serve", flag.ContinueOnError)}
	code := cmdServe(c, []string{"-policies", "fifo,wfq,bogus", "-loads", "0.5,0.8"})
	if code != 2 || !strings.Contains(errb.String(), `unknown policy "bogus"`) {
		t.Fatalf("exit %d, stderr %q; want exit 2 on the bogus policy", code, errb.String())
	}
}

func TestAsm(t *testing.T) {
	want, err := os.ReadFile("testdata/store.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := invoke("asm", "testdata/store.S")
	if code != 0 || stderr != "" {
		t.Fatalf("upim asm: exit %d, stderr %q", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("upim asm listing drifted from testdata/store.golden:\n%s", stdout)
	}
	if code, _, stderr := invoke("asm"); code != 2 || stderr != asmDoc {
		t.Errorf("upim asm without a file: exit %d, stderr %q; want exit 2 and the usage line", code, stderr)
	}
	if code, _, stderr := invoke("asm", "testdata/missing.S"); code != 1 || !strings.HasPrefix(stderr, "upim asm: ") {
		t.Errorf("upim asm on a missing file: exit %d, stderr %q; want exit 1", code, stderr)
	}
}

func TestFiguresList(t *testing.T) {
	code, stdout, stderr := invoke("figures", "-list")
	if code != 0 || stderr != "" {
		t.Fatalf("upim figures -list: exit %d, stderr %q", code, stderr)
	}
	if n, want := strings.Count(stdout, "\n"), len(upim.Experiments()); n != want {
		t.Errorf("upim figures -list printed %d experiments, want %d:\n%s", n, want, stdout)
	}
}
