//go:build !windows

package main_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestChaosSIGINTFlushesReport builds the real binary, starts an
// hour-long chaos soak, interrupts it after a fraction of a second, and
// checks that the JSON soak report still flushes with the interrupted
// marker set and no frames lost.
func TestChaosSIGINTFlushesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real binary")
	}
	bin := filepath.Join(t.TempDir(), "gdpsim")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-chaos", "-n", "12", "-k", "3",
		"-duration", "1h", "-mtbf", "80ms", "-mttr", "30ms",
		"-quiet", "-json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	time.Sleep(600 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("signal: %v", err)
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait: %v\nstderr: %s", err, stderr.Bytes())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("binary did not exit within 30s of SIGINT\nstderr: %s", stderr.Bytes())
	}

	var out struct {
		OK     bool `json:"ok"`
		Report struct {
			Interrupted bool `json:"interrupted"`
			Tenants     []struct {
				Stream struct {
					Submitted int64 `json:"submitted"`
					Delivered int64 `json:"delivered"`
				} `json:"stream"`
			} `json:"tenants"`
		} `json:"report"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, stdout.Bytes())
	}
	if !out.Report.Interrupted {
		t.Fatalf("soak report not marked interrupted:\n%s", stdout.Bytes())
	}
	if !out.OK {
		t.Fatalf("interrupted soak reported invariant failures:\n%s", stdout.Bytes())
	}
	if len(out.Report.Tenants) != 1 {
		t.Fatalf("chaos soak reported %d tenants, want 1:\n%s", len(out.Report.Tenants), stdout.Bytes())
	}
	if st := out.Report.Tenants[0].Stream; st.Submitted == 0 || st.Delivered != st.Submitted {
		t.Fatalf("interrupted shutdown lost frames: %+v", st)
	}
}
