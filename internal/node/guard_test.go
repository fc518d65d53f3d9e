package node

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdMainsDoNotOwnListeners is the structural guard behind the node
// refactor: the cmd binaries are flag→Spec translators, and the listener
// and teardown machinery lives in internal/node ONLY. If a main (or any
// non-test file under cmd/) reacquires a direct http.Server,
// stream.NewServer, net.Listen or a Shutdown call, the drain ordering has
// forked again — the drift this package exists to end. Move the logic
// into internal/node instead.
func TestCmdMainsDoNotOwnListeners(t *testing.T) {
	forbidCode(t, "lifecycle machinery belongs in internal/node, not cmd", []string{
		"http.Server{",
		"stream.NewServer(",
		"net.Listen(",
		".Shutdown(",
		"httputil.NewSingleHostReverseProxy(",
	}, filepath.Join("..", "..", "cmd"))
}

// TestServingRolesShareOneIngress guards the shared serving core: the root
// server and the edge aggregator admit tasks, decode pushed gradients and
// diff published snapshots through internal/ingress ONLY. A direct call in
// either role means the ingress has forked again — the root/edge drift
// (defaults, error texts, context handling) that core exists to end.
func TestServingRolesShareOneIngress(t *testing.T) {
	forbidCode(t, "admission, payload decode and snapshot diffs belong in internal/ingress", []string{
		"protocol.DecodeGradientPayload(",
		"compress.Diff(",
		".Admit(",
	}, filepath.Join("..", "server"), filepath.Join("..", "aggtree"))
}

// forbidCode fails t for every non-test Go line under dirs whose code
// (comments stripped) contains one of the patterns.
func forbidCode(t *testing.T, why string, patterns []string, dirs ...string) {
	t.Helper()
	for _, dir := range dirs {
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(raw), "\n") {
				code := line
				if idx := strings.Index(code, "//"); idx >= 0 {
					code = code[:idx]
				}
				for _, pat := range patterns {
					if strings.Contains(code, pat) {
						t.Errorf("%s:%d: %q — %s (line: %s)", path, i+1, pat, why, strings.TrimSpace(line))
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", dir, err)
		}
	}
}
