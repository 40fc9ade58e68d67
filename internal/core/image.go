package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"miodb/internal/nvm"
	"miodb/internal/vaddr"
)

// Checkpoint images give the simulation process-level durability: the
// entire simulated NVM — superblock, WALs, PMTable arenas, repository —
// is serialized to a real file, and LoadImage rebuilds a store from it
// through the same code path as crash recovery. Semantically a checkpoint
// is a consistent point-in-time copy of the NVM; on real hardware the NVM
// itself would be the durable medium and no image would be needed.
//
// Image format (little-endian):
//
//	magic(8) | regionCount(4)
//	per region: index(4) | chunkSize(4) | extent(8) | crc32(4) | data
//
// The data of each region is its allocated extent, written chunk by chunk.
// The crc32 covers the index, chunkSize and extent fields and then the
// data, so a damaged header is caught like damaged data.
const imageMagic = 0x4d696f4442696d67 // "MioDBimg"

// WriteImage serializes the store's persistent (NVM) state. The store
// must be quiesced first — Checkpoint handles that; callers using
// WriteImage directly must guarantee no concurrent mutation.
func (db *DB) WriteImage(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)

	// Collect live NVM regions (meter == the NVM device).
	var regions []*vaddr.Region
	for _, r := range db.space.Regions() {
		if r.Meter() == vaddr.Meter(db.nvm) {
			regions = append(regions, r)
		}
	}

	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], imageMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(regions)))
	if _, err := bw.Write(hdr[:12]); err != nil {
		return err
	}
	for _, r := range regions {
		extent := r.Size()
		var rh [20]byte
		binary.LittleEndian.PutUint32(rh[0:4], r.Index())
		binary.LittleEndian.PutUint32(rh[4:8], uint32(r.ChunkSize()))
		binary.LittleEndian.PutUint64(rh[8:16], uint64(extent))
		// First pass: checksum the header fields and the content.
		crc := crc32.NewIEEE()
		crc.Write(rh[0:16])
		if err := writeRegionData(crc, r, extent); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(rh[16:20], crc.Sum32())
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if err := writeRegionData(bw, r, extent); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeRegionData(w io.Writer, r *vaddr.Region, extent int64) error {
	chunk := int64(r.ChunkSize())
	for off := int64(0); off < extent; off += chunk {
		n := chunk
		if off+n > extent {
			n = extent - off
		}
		if _, err := w.Write(r.Bytes(r.Base().Add(off), int(n))); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint quiesces the store and writes a checkpoint image to path
// (atomically, via a temporary file). The store keeps running afterwards.
func (db *DB) Checkpoint(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = db.CheckpointTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// CheckpointTo quiesces the store and streams a checkpoint image to w.
// Unlike Checkpoint it does not provide atomic file replacement — callers
// embedding the image in a larger file (the shard router's multi-shard
// images) own that. The store keeps running afterwards.
func (db *DB) CheckpointTo(w io.Writer) error {
	if db.vlog != nil && db.vlog.OnSSD() {
		// SSD segment files are outside the NVM image; a restored store
		// could not resolve their pointers.
		return fmt.Errorf("miodb: checkpoint does not cover an SSD-resident value log")
	}
	// Force the volatile buffer out so the image is self-contained even
	// without WAL replay, then drain background work so no compaction is
	// mid-flight (the image would still recover via the insertion marks,
	// but a quiesced image is simpler to reason about).
	if err := db.FlushAll(); err != nil {
		return err
	}
	// Hold the commit lock (WAL appends + group inserts happen under it)
	// and the structural lock so nothing mutates the NVM during the copy;
	// reads keep flowing.
	db.commitMu.Lock()
	db.mu.Lock()
	err := db.WriteImage(w)
	db.mu.Unlock()
	db.commitMu.Unlock()
	return err
}

// ReadImage reconstructs a crash image from a serialized checkpoint.
func ReadImage(r io.Reader) (*CrashImage, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("miodb: image header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != imageMagic {
		return nil, fmt.Errorf("miodb: not a checkpoint image")
	}
	count := binary.LittleEndian.Uint32(hdr[8:12])
	if count > 1<<22 {
		return nil, fmt.Errorf("miodb: absurd region count %d", count)
	}

	space := vaddr.NewSpace()
	dev := nvm.NewDevice(space, nvm.NVMProfile())
	var data bytes.Buffer
	for i := uint32(0); i < count; i++ {
		var rh [20]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return nil, fmt.Errorf("miodb: image region header: %w", err)
		}
		index := binary.LittleEndian.Uint32(rh[0:4])
		chunkSize := int(binary.LittleEndian.Uint32(rh[4:8]))
		extent := int64(binary.LittleEndian.Uint64(rh[8:16]))
		wantCRC := binary.LittleEndian.Uint32(rh[16:20])
		if extent < 0 || extent > vaddr.MaxRegionSize {
			return nil, fmt.Errorf("miodb: image region %d has absurd extent %d", index, extent)
		}

		// Read and verify the data before the header sizes anything: a
		// damaged index, chunk size or extent could otherwise make the
		// restore allocate without bound. The buffer grows only as far as
		// the stream really reaches.
		data.Reset()
		if _, err := io.CopyN(&data, br, extent); err != nil {
			return nil, fmt.Errorf("miodb: image region %d data: %w", index, err)
		}
		crc := crc32.NewIEEE()
		crc.Write(rh[0:16])
		crc.Write(data.Bytes())
		if crc.Sum32() != wantCRC {
			return nil, fmt.Errorf("miodb: image region %d checksum mismatch", index)
		}

		region, err := space.Restore(index, chunkSize, dev)
		if err != nil {
			return nil, err
		}
		if err := region.RestoreExtent(extent); err != nil {
			return nil, err
		}
		chunk := int64(region.ChunkSize())
		for off := int64(0); off < extent; off += chunk {
			n := min(chunk, extent-off)
			copy(region.Bytes(region.Base().Add(off), int(n)), data.Bytes()[off:off+n])
		}
	}
	return &CrashImage{Space: space, NVM: dev}, nil
}

// OpenImage loads a checkpoint file and recovers a running store from it.
// opts must match the checkpointed store's structural options.
func OpenImage(path string, opts Options) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := ReadImage(f)
	if err != nil {
		return nil, err
	}
	return Recover(img, opts)
}
