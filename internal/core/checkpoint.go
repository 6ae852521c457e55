package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
)

// Checkpoint is the controller's crash-recovery state, written every
// CheckpointEvery epochs. The machine's microarchitectural state is not
// serialized: the simulator is deterministic, so Resume rebuilds it by
// replaying the recorded configuration schedule (no model inference)
// against the same workload, then continues the control loop from Epoch
// with identical state — the epoch log tail matches an uninterrupted run
// exactly.
type Checkpoint struct {
	Version int `json:"version"`
	// Epoch is the number of completed epochs; Resume continues at index
	// Epoch.
	Epoch int `json:"epoch"`
	// Start is the configuration the run began in; a Resume against a
	// machine constructed differently is rejected.
	Start config.Config `json:"start"`
	// Next is the machine configuration entering epoch Epoch (after the
	// boundary decision that preceded this checkpoint), and Reconfigured
	// whether that boundary changed it.
	Next         config.Config `json:"next"`
	Reconfigured bool          `json:"reconfigured"`
	InFallback   bool          `json:"in_fallback"`

	Total    power.Metrics    `json:"total"`
	Epochs   []EpochLog       `json:"epochs"`
	Reconfig int              `json:"reconfig"`
	Watchdog watchdogState    `json:"watchdog"`
	Report   ResilienceReport `json:"report"`
}

const checkpointVersion = 1

// writeFileAtomic writes data via a temp file in the destination directory
// and renames it into place, so a crash mid-write never leaves a torn file
// where a valid one is expected.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeCheckpoint captures the live run state after `done` completed epochs.
func (r *resilientRun) writeCheckpoint(b *boundary, done int) error {
	ck := Checkpoint{
		Version:      checkpointVersion,
		Epoch:        done,
		Start:        b.res.Epochs[0].Config,
		Next:         b.m.Config(),
		Reconfigured: b.reconfigured,
		InFallback:   r.s.inFallback,
		Total:        b.res.Total,
		Epochs:       b.res.Epochs,
		Reconfig:     b.res.Reconfig,
		Watchdog:     r.s.wd,
		Report:       r.s.report,
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return writeFileAtomic(r.s.Opts.CheckpointPath, data)
}

// DecodeCheckpoint parses and validates checkpoint bytes. It is the pure
// decoding core of LoadCheckpoint, split out so untrusted bytes can be
// checked without touching the filesystem (the fuzz harness drives it
// directly).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("core: parsing checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint has version %d, want %d", ck.Version, checkpointVersion)
	}
	if ck.Epoch < 1 || len(ck.Epochs) != ck.Epoch {
		return nil, fmt.Errorf("core: checkpoint records %d logs for %d epochs", len(ck.Epochs), ck.Epoch)
	}
	if !ck.Start.Valid() || !ck.Next.Valid() {
		return nil, fmt.Errorf("core: checkpoint holds an invalid configuration")
	}
	return ck, nil
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return ck, nil
}
