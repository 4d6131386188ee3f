// Page-integrity machinery for the file backend: the per-slot trailer
// codec, read-time verification, targeted WAL-tail repair, and the offline
// corruption helper the scenario package (DESIGN.md §7) uses.
//
// Trailer layout (24 bytes, immediately after the 4 KByte image):
//
//	bytes  0-3   magic "LKPT"
//	bytes  4-11  write epoch, little-endian (store-wide counter)
//	bytes 12-19  page id, little-endian
//	bytes 20-23  CRC32-C (Castagnoli) over image ++ trailer[0:20]
//
// The checksum covers the stored page id, so a structurally intact slot
// copied to the wrong offset (a misdirected write) still verifies its CRC
// — and is then unmasked by the id mismatch, classified CorruptMisdirect
// rather than CorruptChecksum. An all-zero trailer is valid only over an
// all-zero image: that is the shape of a sparse, never-written slot.
package file

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
)

const (
	trailerLen   = 24
	trailerMagic = "LKPT"
)

// mapNoSpace rewraps a device-full failure as the typed, permanent
// storage.ErrNoSpace, so a caller can tell "disk is full" from any other
// disk failure. Any other error passes through untouched.
func mapNoSpace(err error) error {
	if errors.Is(err, syscall.ENOSPC) {
		return fmt.Errorf("%w: %v", storage.ErrNoSpace, err)
	}
	return err
}

// stampTrailer writes the trailer for page p's image at the given epoch
// into tr.
func stampTrailer(tr []byte, p policy.PageID, epoch uint64, img []byte) {
	copy(tr[0:4], trailerMagic)
	binary.LittleEndian.PutUint64(tr[4:12], epoch)
	binary.LittleEndian.PutUint64(tr[12:20], uint64(p))
	crc := crc32.Checksum(img, crcTable)
	crc = crc32.Update(crc, crcTable, tr[0:20])
	binary.LittleEndian.PutUint32(tr[20:24], crc)
}

// checkTrailer verifies img against its trailer as page p's contents. It
// returns nil or a *storage.ErrCorrupt classifying the damage.
func checkTrailer(p policy.PageID, img, tr []byte) error {
	if isZero(tr) {
		// A hole: valid only if the image is the hole's zeros too.
		if isZero(img) {
			return nil
		}
		return &storage.ErrCorrupt{Page: p, Kind: storage.CorruptChecksum}
	}
	crc := crc32.Checksum(img, crcTable)
	crc = crc32.Update(crc, crcTable, tr[0:20])
	if string(tr[0:4]) != trailerMagic || crc != binary.LittleEndian.Uint32(tr[20:24]) {
		return &storage.ErrCorrupt{Page: p, Kind: storage.CorruptChecksum}
	}
	if got := policy.PageID(binary.LittleEndian.Uint64(tr[12:20])); got != p {
		return &storage.ErrCorrupt{Page: p, Kind: storage.CorruptMisdirect}
	}
	return nil
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// writeSlotLocked lays down img and a freshly stamped trailer as page p's
// slot in one write, staging both in the stripe's scratch. The caller holds
// p's stripe latch exclusively (or is single-threaded: replay).
func (s *Store) writeSlotLocked(p policy.PageID, img []byte) error {
	slot := s.stripe(p).slot[:]
	copy(slot, img)
	stampTrailer(slot[storage.PageSize:], p, s.epoch.Add(1), slot[:storage.PageSize])
	if _, err := s.pages.WriteAt(slot, s.slotOff(p)); err != nil {
		return mapNoSpace(err)
	}
	return nil
}

// verifySlotLocked checks img (already read from p's slot) against the
// trailer on disk. The caller holds p's stripe latch (shared suffices) so
// image and trailer are from the same write.
func (s *Store) verifySlotLocked(p policy.PageID, img []byte) error {
	var tr [trailerLen]byte
	if _, err := s.pages.ReadAt(tr[:], s.slotOff(p)+storage.PageSize); err != nil {
		return fmt.Errorf("file: reading trailer of page %d: %w", p, err)
	}
	return checkTrailer(p, img, tr[:])
}

// RepairPage implements storage.Repairer: it re-verifies page p's slot and,
// if corrupt, rewrites it from the most recent image in the write-ahead
// log. The WAL holds every logged image written since the last checkpoint,
// so damage to recently written slots heals; a corrupt slot with no logged
// image has no redundant copy and the corruption error stands. That is a
// checkpointed image, and also, until the next checkpoint, a fresh page's
// first image written behind, which goes to its slot with no record.
func (s *Store) RepairPage(ctx context.Context, p policy.PageID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !s.isAllocated(p) {
		return fmt.Errorf("%w: repair of page %d", storage.ErrPageNotAllocated, p)
	}
	// Hold off checkpoints (which truncate the log mid-scan) and take the
	// stripe exclusively: repair is a write if it proceeds.
	s.ckpt.RLock()
	defer s.ckpt.RUnlock()
	lk := s.stripe(p)
	lk.Lock()
	defer lk.Unlock()

	buf := make([]byte, storage.PageSize)
	if _, err := s.pages.ReadAt(buf, s.slotOff(p)); err != nil {
		return fmt.Errorf("file: repair read of page %d: %w", p, err)
	}
	verr := s.verifySlotLocked(p, buf)
	if verr == nil {
		return nil // already intact; nothing to repair
	}
	img, err := s.walImage(p)
	if err != nil {
		return fmt.Errorf("file: repair of page %d: %w", p, err)
	}
	if img == nil {
		return fmt.Errorf("file: page %d unrepairable (no WAL image): %w", p, verr)
	}
	if err := s.writeSlotLocked(p, img); err != nil {
		return fmt.Errorf("file: repairing page %d: %w", p, err)
	}
	if err := s.verifySlotLocked(p, img); err != nil {
		return fmt.Errorf("file: page %d corrupt after repair: %w", p, err)
	}
	return nil
}

// walImage scans the log through a separate read-only handle and returns
// the last image of page p in it, or nil if the log holds none. It first
// writes out the log's buffer, so an image written behind and not yet in
// the file is found too. The scan stops at the first torn frame —
// concurrent appenders may be mid-frame at the moving tail, but records for
// p itself cannot be (the caller holds p's stripe latch).
func (s *Store) walImage(p policy.PageID) ([]byte, error) {
	if err := s.wal.flush(); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(s.dir, walName))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var img []byte
	for {
		payload, err := readRecord(f)
		if err != nil {
			return img, nil // io.EOF (clean end) or a torn tail: scan over
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			return img, nil
		}
		if rec.kind == recKindPage && rec.page == p {
			img = rec.img // aliases this record's freshly allocated payload
		}
	}
}

// CorruptPages flips one image byte in up to n distinct pages of the
// closed store at dir, choosing among pages with an image in the WAL so a
// subsequent Open's replay (or RepairPage) can heal them. It returns the
// page ids damaged, possibly fewer than n if the log covers fewer pages.
// It is an offline test/chaos helper — never call it on an open store.
func CorruptPages(dir string, n int, seed uint64) ([]policy.PageID, error) {
	walF, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		return nil, fmt.Errorf("file: corrupt-pages: %w", err)
	}
	var ids []policy.PageID
	seen := make(map[policy.PageID]struct{})
	for {
		payload, err := readRecord(walF)
		if err != nil {
			break // clean end or torn tail
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			break
		}
		if rec.kind != recKindPage {
			continue
		}
		if _, dup := seen[rec.page]; !dup {
			seen[rec.page] = struct{}{}
			ids = append(ids, rec.page)
		}
	}
	walF.Close()

	rng := stats.NewRNG(seed)
	for i := len(ids) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		ids[i], ids[j] = ids[j], ids[i]
	}
	if n < len(ids) {
		ids = ids[:n]
	}
	if len(ids) == 0 {
		return nil, nil
	}

	pages, err := os.OpenFile(filepath.Join(dir, pagesName), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("file: corrupt-pages: %w", err)
	}
	defer pages.Close()
	for _, p := range ids {
		off := int64(p)*slotSize + int64(rng.Uint64()%storage.PageSize)
		var b [1]byte
		if _, err := pages.ReadAt(b[:], off); err != nil && err != io.EOF {
			return nil, fmt.Errorf("file: corrupt-pages: reading page %d: %w", p, err)
		}
		b[0] ^= 0xFF
		if _, err := pages.WriteAt(b[:], off); err != nil {
			return nil, fmt.Errorf("file: corrupt-pages: flipping page %d: %w", p, err)
		}
	}
	if err := pages.Sync(); err != nil {
		return nil, fmt.Errorf("file: corrupt-pages: %w", err)
	}
	return ids, nil
}
