package main

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/shield/fsshield"
)

// TestWorkflowAcrossRestarts drives the paper's §4 workflow through the
// commands, one run(...) call per process, on one directory that plays
// the untrusted host: a CAS that outlives its clients, training that
// snapshots to the host and resumes, and the trained model served with
// a key the host never sees. Every call builds fresh platforms, as a new
// process would.
//
// A step the system does not pass yet asserts what happens today and
// names the roadmap item that fixes it ("open: item N"); the change that
// fixes the item flips the step.
func TestWorkflowAcrossRestarts(t *testing.T) {
	host := t.TempDir()
	store := filepath.Join(host, "cas-store")
	snapshots := filepath.Join(host, "snapshots")
	untrained := filepath.Join(host, "untrained.stfl")
	writeLiteModel(t, untrained, nil)

	// 1. A CAS starts on store S, a worker registers its session and
	// attests to it, and the CAS stops.
	runWorkerOn(t, store, "workflow-1", "-model", untrained, "-once")
	storeLog := filepath.Join(store, ".cas", "store.log")
	if _, err := os.Stat(storeLog); err != nil {
		t.Fatalf("step 1: the session left no record in the CAS store: %v", err)
	}

	// 2. A second CAS on S must open it. Open: item 17 — the store key is
	// sealed to the first process's platform, which the next one does
	// not have.
	restartCAS := func() error {
		return run([]string{"cas", "-store", store, "-keyout", filepath.Join(host, "trust", "cas.pem"), "-once"}, io.Discard)
	}
	if err := restartCAS(); err == nil || !strings.Contains(err.Error(), "store key unseal failed") {
		t.Fatalf("step 2: a second CAS on the store: %v; today it fails with %q (open: item 17)", err, "store key unseal failed")
	}
	t.Log("step 2 open: item 17: a restarted CAS cannot unseal its store key")

	// 3. Training attests its nodes to that CAS. Open: item 34 — train
	// takes no CAS flags, so its job starts a CAS of its own and the
	// step runs without the deployment's.
	train := func(args ...string) (string, error) {
		var buf bytes.Buffer
		err := run(append([]string{"train", "-workers", "2", "-batch", "10", "-checkpoint-every", "2"}, args...), &buf)
		return buf.String(), err
	}
	if _, err := train("-rounds", "2", "-cas", "127.0.0.1:7300"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -cas") {
		t.Fatalf("step 3: train -cas: %v; today train takes no CAS flags (open: item 34)", err)
	}
	if out, err := train("-rounds", "2", "-checkpoint-dir", snapshots); err != nil || !strings.Contains(out, "round 2: mean loss") {
		t.Fatalf("step 3: train: %v\n%s", err, out)
	}
	t.Log("step 3 open: item 34: train ran without the deployment's CAS")

	// 4. Save the snapshot volume, train on from it, then put the saved
	// files back: the host rolls the volume back.
	saved := readTree(t, snapshots)
	if out, err := train("-rounds", "4", "-resume-from", snapshots); err != nil || !strings.Contains(out, "round 4: mean loss") {
		t.Fatalf("step 4: resumed train: %v\n%s", err, out)
	}
	writeTree(t, snapshots, saved)

	// 5. Resuming from the rolled-back volume must fail with
	// ErrRolledBack. Open: item 14 — the new job's CAS has no record of
	// the old job's snapshots, so it resumes from round 2 again.
	if out, err := train("-rounds", "4", "-resume-from", snapshots); err != nil || !strings.Contains(out, "round 3: mean loss") {
		t.Fatalf("step 5: resume from a rolled-back volume: %v; today it resumes (open: item 14)\n%s", err, out)
	}
	t.Log("step 5 open: item 14: a rollback across jobs is accepted")

	// 6. No file on the volume alone opens a snapshot. Open: item 14 —
	// volume.key sits in plaintext beside the snapshots.
	raw, err := os.ReadFile(filepath.Join(snapshots, "volume.key"))
	if err != nil {
		t.Fatalf("step 6: no volume.key beside the snapshots: %v; today it is there (open: item 14)", err)
	}
	key, err := securetf.VolumeKeyFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	volume, err := fsshield.New(fsshield.Config{
		Inner:     securetf.NewDirFS(snapshots),
		VolumeKey: *key,
		Rules:     []securetf.Rule{securetf.EncryptPrefix("checkpoints/")},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := securetf.ReadFile(volume, "checkpoints/shard-0.ckpt")
	if err != nil {
		t.Fatalf("step 6: volume.key does not open the snapshot: %v; today it does (open: item 14)", err)
	}
	snap, err := securetf.DecodeDistCheckpoint(data)
	if err != nil || snap.Rounds != 4 {
		t.Fatalf("step 6: snapshot %v rounds, %v; want the round-4 snapshot step 5 wrote", snap, err)
	}
	t.Log("step 6 open: item 14: the host's files alone open a snapshot")

	// 7. Cut the CAS's store log mid-record and restart the CAS: it must
	// recover, or fail with a typed error an operator can act on. Open:
	// item 24, behind item 17 — the restart fails to unseal the store key
	// before it reads the log.
	info, err := os.Stat(storeLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(storeLog, info.Size()-8); err != nil {
		t.Fatal(err)
	}
	if err := restartCAS(); err == nil || !strings.Contains(err.Error(), "store key unseal failed") {
		t.Fatalf("step 7: a CAS on a torn store log: %v; today it fails with %q first (open: items 24 and 17)", err, "store key unseal failed")
	}
	t.Log("step 7 open: item 24 (behind item 17): a torn store log is never read")

	// 8. A worker serves the trained model, loaded through the shield
	// with the volume key the CAS provisions, and classifies over the
	// attested channel. The CAS runs on a fresh store: S does not reopen
	// (step 2).
	trained := filepath.Join(host, "trained.stfl")
	writeLiteModel(t, trained, snap.Vars)
	out := runWorkerOn(t, filepath.Join(host, "cas-store-2"), "workflow-8", "-model", trained, "-selftest", "-once")
	if want := "selftest: classified one input over shielded TLS → model trained"; !strings.Contains(out, want) {
		t.Fatalf("step 8: output missing %q:\n%s", want, out)
	}
}

// writeLiteModel writes train's model (the MNIST CNN), with vars set
// over its initial variables, to path as a Lite model.
func writeLiteModel(t *testing.T, path string, vars map[string]*securetf.Tensor) {
	t.Helper()
	m, err := securetf.OpenModel(nil, securetf.NewMNISTCNN(1), nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.SetVariables(vars); err != nil {
		t.Fatal(err)
	}
	frozen, err := m.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	lite, err := frozen.ConvertToLite(securetf.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, lite.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readTree reads every file under dir, by its path relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// writeTree makes dir hold exactly files, as readTree read them.
func writeTree(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for rel := range readTree(t, dir) {
		if _, ok := files[rel]; !ok {
			if err := os.Remove(filepath.Join(dir, rel)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for rel, data := range files {
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}
