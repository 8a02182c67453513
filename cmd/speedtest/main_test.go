package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started again
// with SPEEDTEST_AS_MAIN=1, so the tests below drive main's real flag
// parsing and printing in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("SPEEDTEST_AS_MAIN") == "1" {
		os.Args = append([]string{"speedtest"}, strings.Fields(os.Getenv("SPEEDTEST_ARGS"))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSpeedtest runs the command with args in a child process and returns
// its stdout, its stderr and its exit code.
func runSpeedtest(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SPEEDTEST_AS_MAIN=1", "SPEEDTEST_ARGS="+args)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		return out.String(), errOut.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("speedtest %s: %v", args, err)
	}
	return out.String(), errOut.String(), 0
}

// TestSpeedtestGoldenOutput pins the command's stdout for the default test
// (London over Starlink to Iowa), a second Starlink city and a terrestrial
// test to the closest server. Other architectures may fuse floating-point
// multiply-adds differently, so the pin is amd64's.
func TestSpeedtestGoldenOutput(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("output pinned on amd64")
	}
	cases := []struct {
		name, args, want string
	}{
		{"default", "", `speedtest: London over starlink -> gcp-iowa
  ping     135.4 ms (jitter 8.0 ms)
  down     114.4 Mbps
  up        10.8 Mbps
`},
		{"barcelona", "-city Barcelona -isp starlink", `speedtest: Barcelona over starlink -> gcp-iowa
  ping     139.4 ms (jitter 3.9 ms)
  down     184.3 Mbps
  up        20.1 Mbps
`},
		{"broadband-closest", "-isp broadband -server closest", `speedtest: London over broadband -> gcp-london
  ping       8.1 ms (jitter 0.6 ms)
  down     337.9 Mbps
  up        96.5 Mbps
`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, stderr, code := runSpeedtest(t, c.args)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if got != c.want {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

// TestSpeedtestRejectsReal checks that -real is an unknown flag: the
// command measures only the simulated path.
func TestSpeedtestRejectsReal(t *testing.T) {
	stdout, stderr, code := runSpeedtest(t, "-real")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -real") {
		t.Errorf("speedtest -real: exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("speedtest -real printed %q on stdout", stdout)
	}
}
