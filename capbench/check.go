package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// footer matches the timing line capsim prints after each experiment's
// render, with the blank line that follows it; it is the only part of the
// output that differs between runs.
var footer = regexp.MustCompile(`(?m)^\(([a-z0-9-]+) in [0-9.]+s\)\n\n`)

// SplitRenders cuts capsim's stdout into per-experiment renders with the
// footers stripped, and checks that they are exactly the ids asked for, in
// order.
func SplitRenders(out string, ids []string) (map[string]string, error) {
	renders := make(map[string]string, len(ids))
	rest := out
	for _, id := range ids {
		m := footer.FindStringSubmatchIndex(rest)
		if m == nil {
			return nil, fmt.Errorf("no render footer for %s", id)
		}
		if got := rest[m[2]:m[3]]; got != id {
			return nil, fmt.Errorf("render footer names %s, want %s", got, id)
		}
		renders[id] = rest[:m[0]]
		rest = rest[m[1]:]
	}
	if strings.TrimSpace(rest) != "" {
		return nil, fmt.Errorf("unexpected output after the last render: %.80q", rest)
	}
	return renders, nil
}

// Digests maps each render to its SHA-256.
func Digests(renders map[string]string) map[string]string {
	d := make(map[string]string, len(renders))
	for id, r := range renders {
		d[id] = sha(r)
	}
	return d
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// SameDigests returns a description of the first id whose digest differs
// between want and got, or "" when they agree on every id of want.
func SameDigests(want, got map[string]string) string {
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			return fmt.Sprintf("%s: render digest %.12s, want %.12s", id, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d renders, want %d", len(got), len(want))
	}
	return ""
}

// ledgerLine is the part of a flight-ledger NDJSON line the checks need.
type ledgerLine struct {
	Run int64 `json:"run"`
}

// runField is a ledger line's run id, which numbers runs in publication
// order; parallel sweep workers publish in scheduling order.
var runField = regexp.MustCompile(`"run":[0-9]+,`)

// LedgerDigest hashes a gzipped ledger's content independently of run
// order and numbering: each run's lines, with the run id removed, hash to
// one block digest, and the sorted block digests hash to the result. The
// header line, which carries the generation time, is skipped. It also
// returns the run ids in file order.
func LedgerDigest(path string) (digest string, runs []int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	var blocks []string
	block := sha256.New()
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if first {
			first = false
			continue
		}
		if bytes.HasPrefix(line, []byte(`{"t":"run"`)) {
			var l ledgerLine
			if err := json.Unmarshal(line, &l); err != nil {
				return "", nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, l.Run)
			if len(runs) > 1 {
				blocks = append(blocks, hex.EncodeToString(block.Sum(nil)))
				block.Reset()
			}
		}
		block.Write(runField.ReplaceAll(line, nil))
		block.Write([]byte{'\n'})
	}
	if err := sc.Err(); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	blocks = append(blocks, hex.EncodeToString(block.Sum(nil)))
	sort.Strings(blocks)
	return sha(strings.Join(blocks, "\n")), runs, nil
}

// WriteLedgerSubset copies the header and every line of the runs in keep
// from the gzipped ledger src to the plain NDJSON file dst.
func WriteLedgerSubset(src, dst string, keep map[int64]bool) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		var l ledgerLine
		if !first {
			if err := json.Unmarshal(line, &l); err != nil {
				out.Close()
				return fmt.Errorf("%s: %w", src, err)
			}
		}
		if first || keep[l.Run] {
			w.Write(line)
			w.WriteByte('\n')
		}
		first = false
	}
	if err := sc.Err(); err != nil {
		out.Close()
		return fmt.Errorf("%s: %w", src, err)
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// ReportMatchesZoo checks that a -report over the zoo's own ledger runs
// prints the zoo render's tables byte for byte: the report body after its
// header block must equal the render after its title line.
func ReportMatchesZoo(report, zooRender string) error {
	i := strings.Index(report, "\n\n")
	if i < 0 {
		return fmt.Errorf("-report output has no header block")
	}
	body := strings.TrimRight(report[i+2:], "\n")
	j := strings.IndexByte(zooRender, '\n')
	if j < 0 {
		return fmt.Errorf("zoo render has no title line")
	}
	want := strings.TrimRight(zooRender[j+1:], "\n")
	if body != want {
		return fmt.Errorf("-report tables (%d bytes, %.12s) differ from the zoo render (%d bytes, %.12s)",
			len(body), sha(body), len(want), sha(want))
	}
	return nil
}

// zooRows counts the data rows of the zoo render's league table, one per
// run column the zoo recorded.
func zooRows(zooRender string) int {
	i := strings.Index(zooRender, "\nleague:")
	if i < 0 {
		return 0
	}
	block := zooRender[i+1:]
	if j := strings.Index(block, "\n\n"); j >= 0 {
		block = block[:j]
	}
	return strings.Count(block, "\n") - 2 // title, header, rule; data rows
}
