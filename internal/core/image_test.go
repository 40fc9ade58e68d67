package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointAndOpenImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.img")

	opts := smallOpts()
	db := mustOpen(t, opts)
	golden := map[string]string{}
	for i := 0; i < 2500; i++ {
		k := fmt.Sprintf("key-%05d", i%700)
		v := fmt.Sprintf("v%d", i)
		db.Put([]byte(k), []byte(v))
		golden[k] = v
	}
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	// The store keeps working after a checkpoint.
	db.Put([]byte("post-checkpoint"), []byte("yes"))
	if v, err := db.Get([]byte("post-checkpoint")); err != nil || string(v) != "yes" {
		t.Fatal("store broken after checkpoint")
	}
	db.Close()

	// A brand-new "process": load the image and verify everything up to
	// the checkpoint.
	re, err := OpenImage(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for k, v := range golden {
		got, err := re.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("restored Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
	// post-checkpoint data must NOT be there (written after the image).
	if _, err := re.Get([]byte("post-checkpoint")); err != ErrNotFound {
		t.Errorf("post-checkpoint key visible in image: %v", err)
	}
	// The restored store accepts new writes and checkpoints again.
	re.Put([]byte("second-life"), []byte("ok"))
	path2 := filepath.Join(dir, "store2.img")
	if err := re.Checkpoint(path2); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenImage(path2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if v, err := re2.Get([]byte("second-life")); err != nil || string(v) != "ok" {
		t.Fatal("second-generation image broken")
	}
}

func TestOpenImageRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.img")
	os.WriteFile(path, []byte("definitely not an image"), 0o644)
	if _, err := OpenImage(path, smallOpts()); err == nil {
		t.Error("garbage image accepted")
	}
	if _, err := OpenImage(filepath.Join(dir, "missing.img"), smallOpts()); err == nil {
		t.Error("missing image accepted")
	}
}

func TestOpenImageDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.img")
	opts := smallOpts()
	db := mustOpen(t, opts)
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("v"), 64))
	}
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Flip a byte deep inside the image.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)
	if _, err := OpenImage(path, opts); err == nil {
		t.Error("corrupted image accepted (checksum miss)")
	}
}

// TestReadImageRejectsEveryHeaderFlip damages each byte of each region
// header in turn — index, chunk size, extent and checksum — and expects
// every damaged image to be refused.
func TestReadImageRejectsEveryHeaderFlip(t *testing.T) {
	db := mustOpen(t, smallOpts())
	for i := 0; i < 1000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte("v"), 64))
	}
	var img bytes.Buffer
	if err := db.CheckpointTo(&img); err != nil {
		t.Fatal(err)
	}
	db.Close()
	data := img.Bytes()
	if _, err := ReadImage(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact image refused: %v", err)
	}

	count := int(binary.LittleEndian.Uint32(data[8:12]))
	off := 12
	for r := 0; r < count; r++ {
		for b := 0; b < 20; b++ {
			data[off+b] ^= 0xff
			if _, err := ReadImage(bytes.NewReader(data)); err == nil {
				t.Errorf("region #%d: flip of header byte %d accepted", r, b)
			}
			data[off+b] ^= 0xff
		}
		off += 20 + int(binary.LittleEndian.Uint64(data[off+8:off+16]))
	}
	if off != len(data) {
		t.Fatalf("walked %d of %d image bytes", off, len(data))
	}
}

func TestCheckpointWithConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	opts := smallOpts()
	db := mustOpen(t, opts)
	defer db.Close()
	for i := 0; i < 1500; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i%500)), []byte(fmt.Sprintf("v%d", i)))
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if _, err := db.Get([]byte(fmt.Sprintf("key-%04d", 123))); err != nil {
				done <- err
				return
			}
		}
	}()
	path := filepath.Join(dir, "live.img")
	if err := db.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("reader failed during checkpoint: %v", err)
	}
	re, err := OpenImage(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
