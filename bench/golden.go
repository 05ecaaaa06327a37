package bench

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Golden digests: golden/<workload>.seed<n>.sha256 holds one
// "<sha256>  <key>" line per distinct op output of that seed, in the
// format sha256sum prints. An op whose bytes differ fails. Seeds without
// a file are checked only against repeats within the run.
//
//go:embed golden
var goldenFS embed.FS

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("%s.seed%d.sha256", workload, seed)
}

func loadGolden(workload string, seed int64) map[string][sha256.Size]byte {
	data, err := goldenFS.ReadFile("golden/" + goldenName(workload, seed))
	if err != nil {
		return nil
	}
	golden := map[string][sha256.Size]byte{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		sum, key, ok := strings.Cut(sc.Text(), "  ")
		raw, err := hex.DecodeString(sum)
		if !ok || err != nil || len(raw) != sha256.Size {
			continue
		}
		golden[key] = [sha256.Size]byte(raw)
	}
	return golden
}

// writeGolden records the digests a run saw as the seed's golden file.
func writeGolden(dir, workload string, seed int64, digests map[string][sha256.Size]byte) error {
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		d := digests[k]
		fmt.Fprintf(&buf, "%s  %s\n", hex.EncodeToString(d[:]), k)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenName(workload, seed)), buf.Bytes(), 0o644)
}
