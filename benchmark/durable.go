package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"time"

	latest "github.com/spatiotext/latest"
	"github.com/spatiotext/latest/internal/persist"
)

// recovery is what restarting from a crashed data directory showed.
type recovery struct {
	elapsed    time.Duration
	replayed   uint64
	window     int // recovered engine's live objects
	liveAtCopy int // the ring's live objects when the directory was copied
}

// copyDir copies the regular files of src into dst as they stand.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// crashAndRecover copies the durable stack's data directory while the
// engine is live — a snapshot plus whatever WAL followed it, which is what
// a crash leaves — shuts the stack down, and times a second NewDurable on
// the copy. It consumes st.
func crashAndRecover(st *stack, in *inputs, cfg stackConfig, copyTo string) (recovery, error) {
	rec := recovery{liveAtCopy: in.next - in.liveLo(in.now())}
	err := copyDir(cfg.dir, copyTo)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rec, err
	}
	eng, err := newEngine(cfg, embedShards, cfg.seed)
	if err != nil {
		return rec, err
	}
	fs, err := latest.NewFileStore(copyTo)
	if err != nil {
		return rec, err
	}
	start := time.Now()
	d, err := latest.NewDurable(eng, fs, latest.DurableConfig{})
	rec.elapsed = time.Since(start)
	if err != nil {
		return rec, err
	}
	rec.window = eng.WindowSize()
	if s := d.TelemetrySnapshot().Durable; s != nil {
		rec.replayed = s.RecoveryWALRecords
	}
	return rec, d.Shutdown(context.Background())
}

// checkRecovery holds the recovered engine to the durability contract: at
// most the un-fsynced WAL tail is lost, and the WAL was actually replayed.
func (r *result) checkRecovery(rec recovery) {
	lost := rec.liveAtCopy - rec.window
	r.check(lost >= -persist.DefaultWALSyncEvery && lost <= persist.DefaultWALSyncEvery,
		"recovered window %d, live at copy %d: more than WALSyncEvery=%d apart",
		rec.window, rec.liveAtCopy, persist.DefaultWALSyncEvery)
	r.check(rec.replayed > 0, "recovery replayed no WAL records")
}
