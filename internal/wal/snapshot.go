package wal

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"spanjoin/internal/resilience"
)

// Snapshot file format:
//
//	8 bytes  magic "SJSNAP\x00\x01"
//	u32      shard count
//	u64      applied sequence number (records ≤ this are in the snapshot)
//	per shard:
//	  u64    document count
//	  per document: u32 length, bytes
//	u32      CRC32-C over everything after the magic
//
// The file is written to a .tmp sibling, fsynced, renamed into place,
// and the directory fsynced — the rename is the commit point, so a
// snapshot either exists completely or not at all. The whole-file
// checksum means recovery either trusts all of it or reports
// resilience.ErrCorrupt; there is no partial snapshot load.

// WriteSnapshot writes snap-<gen>.snap atomically. shards are the
// captured per-shard document prefixes; appliedSeq is the log sequence
// number the capture covers. The caller (the store's snapshot cycle)
// rotated the log to gen before capturing, so record replay over this
// snapshot is idempotent by sequence number.
func WriteSnapshot(dir string, gen, appliedSeq uint64, shards [][]string) (err error) {
	final := filepath.Join(dir, snapName(gen))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	// The magic goes straight to the file — it is not part of the
	// checksummed body.
	if _, err = faultWrite(f, []byte(snapMagic), "snapshot"); err != nil {
		return err
	}
	h := crc32.New(crcTable)
	// Tee the body through the checksum; buffered so per-document writes
	// do not become per-document syscalls. The write failpoint is applied
	// at flush via faultWriter, so torn snapshot writes are injectable.
	fw := &faultWriter{f: f}
	w := bufio.NewWriterSize(io.MultiWriter(fw, h), 1<<20)

	var scratch [8]byte
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, werr := w.Write(scratch[:4])
		return werr
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, werr := w.Write(scratch[:8])
		return werr
	}
	if err = put32(uint32(len(shards))); err != nil {
		return err
	}
	if err = put64(appliedSeq); err != nil {
		return err
	}
	for _, docs := range shards {
		if err = put64(uint64(len(docs))); err != nil {
			return err
		}
		for _, d := range docs {
			if err = put32(uint32(len(d))); err != nil {
				return err
			}
			if _, err = w.WriteString(d); err != nil {
				return err
			}
		}
	}
	// The trailing checksum is written to the file only (not fed back
	// into the hash): flush the body first so h is complete.
	if err = w.Flush(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(scratch[:4], h.Sum32())
	if _, err = faultWrite(f, scratch[:4], "snapshot"); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	resilience.Inject(resilience.CrashSnapBeforeRen, gen)
	if err = os.Rename(tmp, final); err != nil {
		return err
	}
	if err = syncDir(dir); err != nil {
		return err
	}
	resilience.Inject(resilience.CrashSnapAfterRen, gen)
	return nil
}

// faultWriter routes bufio flushes through the snapshot write failpoint.
type faultWriter struct{ f *os.File }

func (fw *faultWriter) Write(b []byte) (int, error) { return faultWrite(fw.f, b, "snapshot") }

// readSnapshot loads a snapshot into shards (created by the caller with
// the store's shard count) and returns the applied sequence number.
// Documents written with a different shard count are re-dealt
// round-robin across the available shards. The body is decoded through a
// buffered reader and checksummed as it is read, so the file is never
// held whole. Every structural or checksum failure is resilience.ErrCorrupt —
// a snapshot is all-or-nothing: Open fails and drops what was decoded.
func readSnapshot(path string, shards [][]string) (appliedSeq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	base := filepath.Base(path)
	if st.Size() < int64(len(snapMagic)+4+8+4) {
		return 0, corruptf("wal: snapshot %s: bad magic or truncated", base)
	}
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(f, head); err != nil {
		return 0, err
	}
	if string(head) != snapMagic {
		return 0, corruptf("wal: snapshot %s: bad magic or truncated", base)
	}
	// The body is checksummed as the buffered reader fills from the file,
	// a block at a time; left counts its bytes not yet decoded, and the
	// checksum follows them.
	left := st.Size() - int64(len(snapMagic)) - 4
	h := crc32.New(crcTable)
	r := bufio.NewReaderSize(io.TeeReader(io.LimitReader(f, left), h), readBufBytes)
	var spill []byte
	// read returns the body's next n bytes (see take), the part named what
	// of shard si; fewer left is corruption.
	read := func(n int, what string, si int) ([]byte, error) {
		if left < int64(n) {
			return nil, corruptf("wal: snapshot %s: truncated %s in shard %d", base, what, si)
		}
		b, err := take(r, n, &spill)
		if err != nil {
			return nil, err
		}
		left -= int64(n)
		return b, nil
	}
	b, err := read(12, "header", 0)
	if err != nil {
		return 0, err
	}
	count := binary.LittleEndian.Uint32(b)
	appliedSeq = binary.LittleEndian.Uint64(b[4:])
	if count == 0 || count > 1<<20 {
		return 0, corruptf("wal: snapshot %s: impossible shard count %d", base, count)
	}
	redeal := int(count) != len(shards)
	next := 0
	for si := 0; si < int(count); si++ {
		if b, err = read(8, "header", si); err != nil {
			return 0, err
		}
		docs := binary.LittleEndian.Uint64(b)
		if docs > uint64(st.Size()) {
			return 0, corruptf("wal: snapshot %s: impossible document count %d in shard %d", base, docs, si)
		}
		for di := uint64(0); di < docs; di++ {
			if b, err = read(4, "document header", si); err != nil {
				return 0, err
			}
			if b, err = read(int(binary.LittleEndian.Uint32(b)), "document", si); err != nil {
				return 0, err
			}
			tgt := si
			if redeal {
				tgt = next % len(shards)
				next++
			}
			shards[tgt] = append(shards[tgt], string(b))
		}
	}
	if left != 0 {
		return 0, corruptf("wal: snapshot %s: %d trailing bytes", base, left)
	}
	sum := head[:4]
	if _, err := io.ReadFull(f, sum); err != nil {
		return 0, err
	}
	if h.Sum32() != binary.LittleEndian.Uint32(sum) {
		return 0, corruptf("wal: snapshot %s: checksum mismatch", base)
	}
	return appliedSeq, nil
}
