package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"gpuscale/internal/dist"
	"gpuscale/internal/serve"
	"gpuscale/internal/sweep"
)

// reference runs the job in process on the single-node executor and
// encodes its CSV: the bytes every fetched matrix must equal. At the
// default seed its digest must also equal the one pinned in pinned.go,
// so a simulator change that moves any number fails the check.
func reference(ctx context.Context, wl *workload, in *inputs, seed int64) (*refResult, error) {
	start := time.Now()
	m, rep, err := sweep.RunContext(ctx, in.kernels, in.space, sweep.Options{
		Engine: wl.engine, NoiseStdDev: noise, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	runS := time.Since(start).Seconds()
	if rep.Failed > 0 || rep.Skipped > 0 {
		return nil, fmt.Errorf("reference sweep: %s", rep.Summary())
	}
	var b bytes.Buffer
	if err := m.WriteCSV(&b); err != nil {
		return nil, err
	}
	return &refResult{matrix: m, csv: b.Bytes(), digest: sha256Hex(b.Bytes()), runS: runS}, nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checker is the fail-closed output check.
type checker struct {
	ref *refResult
	in  *inputs
	// pinnedOK is false when the reference itself disagrees with the
	// pinned digest; every job then fails.
	pinnedOK bool
	notes    []string
}

func newChecker(ref *refResult, in *inputs, seed int64) *checker {
	c := &checker{ref: ref, in: in, pinnedOK: true}
	if want, ok := pinnedDigests[in.pinKey]; ok && seed == DefaultSeed && want != ref.digest {
		c.pinnedOK = false
		c.notes = append(c.notes, fmt.Sprintf("reference digest %s differs from the pinned %s (%s, seed %d): the simulator's output changed",
			ref.digest, want, in.pinKey, seed))
	}
	return c
}

// check grades one fetched matrix: the job must be complete, its CSV
// must be byte-identical to the reference, and every cell ok.
func (c *checker) check(j *jobRecord, csv []byte) {
	j.ok = c.pinnedOK && j.state == serve.StateComplete && sha256Hex(csv) == c.ref.digest
	if j.ok {
		return
	}
	j.cellsFailed = c.failedCells(csv)
	if j.cellsFailed == 0 {
		// Every cell matched, yet the bytes did not (or the reference
		// is off its pin): the job still fails, and counts whole.
		j.cellsFailed = c.in.cells()
	}
	c.notes = append(c.notes, fmt.Sprintf("job %s failed the output check (state %s, %d of %d cells wrong)",
		j.id, j.state, j.cellsFailed, c.in.cells()))
}

// checkRefetch grades a further fetch of a job's matrix: it must be
// byte-identical to the job's first fetch.
func (c *checker) checkRefetch(j *jobRecord, first, again []byte) {
	if !j.ok || bytes.Equal(first, again) {
		return
	}
	j.ok = false
	j.cellsFailed = c.in.cells()
	c.notes = append(c.notes, fmt.Sprintf("job %s: a further fetch of its matrix differs from the first", j.id))
}

// failedCells counts the cells of a fetched CSV that are missing, not
// ok, or differ from the reference. An unreadable CSV fails every cell.
func (c *checker) failedCells(csv []byte) int {
	total := c.in.cells()
	m, err := sweep.ReadCSVPartial(bytes.NewReader(csv), c.in.space)
	if err != nil {
		return total
	}
	ref := c.ref.matrix
	good := 0
	for r, name := range ref.Kernels {
		fr := m.Row(name)
		if fr < 0 {
			continue
		}
		for col := range ref.Throughput[r] {
			if m.CellOK(fr, col) &&
				math.Float64bits(m.Throughput[fr][col]) == math.Float64bits(ref.Throughput[r][col]) &&
				math.Float64bits(m.TimeNS[fr][col]) == math.Float64bits(ref.TimeNS[r][col]) &&
				m.Bound[fr][col] == ref.Bound[r][col] {
				good++
			}
		}
	}
	return total - good
}

// checkDeployment runs the checks that need the whole run: the fleet's
// lease ledger must audit clean with exactly one accepted complete per
// row, the standby must have applied everything the primary published,
// and no background loop may have failed. A miss fails every job.
func (c *checker) checkDeployment(ctx context.Context, d *deployment, jobs []*jobRecord) {
	var problems []string
	for _, err := range d.errs() {
		problems = append(problems, err.Error())
	}
	if d.coord != nil {
		problems = append(problems, c.auditLedger(d.coord.LedgerPath(), jobs)...)
	}
	if d.sb != nil {
		if err := waitStandby(ctx, d); err != nil {
			problems = append(problems, err.Error())
		}
	}
	if len(problems) == 0 {
		return
	}
	for _, j := range jobs {
		if j.ok {
			j.ok = false
			j.cellsFailed = c.in.cells()
		}
	}
	c.notes = append(c.notes, problems...)
}

// auditLedger checks the coordinator's ledger after the run.
func (c *checker) auditLedger(path string, jobs []*jobRecord) []string {
	recs, err := dist.ReadLedger(path)
	if err != nil {
		return []string{err.Error()}
	}
	if _, err := dist.AuditLedger(recs); err != nil {
		return []string{err.Error()}
	}
	completes := map[string]int{}
	for _, r := range recs {
		if r.Kind == "complete" {
			completes[fmt.Sprintf("%s/%d", r.Job, r.Row)]++
		}
	}
	var out []string
	for _, j := range jobs {
		for row := range c.in.kernels {
			if n := completes[fmt.Sprintf("%s/%d", j.id, row)]; n != 1 {
				out = append(out, fmt.Sprintf("ledger: job %s row %d has %d accepted completes, want 1", j.id, row, n))
			}
		}
	}
	return out
}

// waitStandby waits until the standby's applied cursor reaches the
// primary's published one.
func waitStandby(ctx context.Context, d *deployment) error {
	want, err := d.primaryCursor(ctx)
	if err != nil {
		return fmt.Errorf("reading the primary's cursor: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.sb.Status()
		if st.Role != "standby" {
			return fmt.Errorf("standby is %s, want standby", st.Role)
		}
		if st.Cursor >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby applied cursor %d, primary published %d", st.Cursor, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
