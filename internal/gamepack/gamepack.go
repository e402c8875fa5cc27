// Package gamepack defines the .tkg game package: the single distributable
// file the authoring tool exports and the gaming platform loads (and the
// unit the network layer streams).
//
// A package bundles the project document (JSON) with its video container
// (TKVC) in a sectioned, checksummed binary layout:
//
//	magic "TKGP" | version | section count
//	per section: name len | name | payload len | crc32 | payload
//
// Sections are self-describing so future versions can add e.g. audio tracks
// without breaking old readers. The video section is stored last and is by
// far the largest, which is what makes progressive loading (metadata first,
// video streamed) effective in experiment E8.
package gamepack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/media/container"
)

const (
	magic   = "TKGP"
	version = 1

	// SectionProject is the JSON project document.
	SectionProject = "project"
	// SectionVideo is the TKVC container blob.
	SectionVideo = "video"
	// SectionMeta is a small JSON header with title/author (readable
	// without parsing the full project).
	SectionMeta = "meta"
	// SectionManifest is the chunk manifest: the content-addressed
	// description of the other sections (see manifest.go).
	SectionManifest = "manifest"
)

// ErrBadPackage reports a malformed .tkg blob.
var ErrBadPackage = errors.New("gamepack: malformed package")

// Package is a parsed game package.
type Package struct {
	Project *core.Project
	Video   []byte // raw TKVC blob
}

// section is one named payload of a package blob.
type section struct {
	name string
	data []byte
}

// assemble serializes sections in order with the TKGP framing. It is
// deterministic: the same payloads always produce the same bytes, which
// is what lets a delta-syncing client reassemble a bit-identical blob
// from the manifest's chunks.
func assemble(sections []section) []byte {
	var buf []byte
	buf = append(buf, magic...)
	buf = append(buf, version)
	buf = binary.AppendUvarint(buf, uint64(len(sections)))
	for _, s := range sections {
		buf = binary.AppendUvarint(buf, uint64(len(s.name)))
		buf = append(buf, s.name...)
		buf = binary.AppendUvarint(buf, uint64(len(s.data)))
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(s.data))
		buf = append(buf, crc[:]...)
		buf = append(buf, s.data...)
	}
	return buf
}

// Build assembles a .tkg blob from a project and its video container,
// including a chunk manifest section (video chunks cut at segment
// boundaries) so servers and caches can deduplicate and delta-sync the
// package. The video blob is validated before inclusion.
func Build(p *core.Project, video []byte) ([]byte, error) {
	if p == nil {
		return nil, errors.New("gamepack: nil project")
	}
	if _, err := container.Open(video); err != nil {
		return nil, fmt.Errorf("gamepack: invalid video container: %w", err)
	}
	projJSON, err := p.Marshal()
	if err != nil {
		return nil, fmt.Errorf("gamepack: %w", err)
	}
	meta := fmt.Sprintf(`{"title":%q,"author":%q,"scenarios":%d}`, p.Title, p.Author, len(p.Scenarios))
	payload := []section{
		{SectionMeta, []byte(meta)},
		{SectionProject, projJSON},
		{SectionVideo, video},
	}
	man, err := manifestFor(payload, true)
	if err != nil {
		return nil, err
	}
	// The manifest rides just before the video (its placeholder position),
	// keeping the video last for progressive loading.
	sections := []section{
		payload[0], payload[1],
		{SectionManifest, man.Encode()},
		payload[2],
	}
	return assemble(sections), nil
}

// Sections parses the section table: names, offsets and sizes. A blob
// cut short anywhere, inside the table or inside a payload, is an
// ErrBadPackage.
func Sections(blob []byte) (map[string][2]int, error) {
	if len(blob) < 5 {
		return nil, fmt.Errorf("%w: truncated header", ErrBadPackage)
	}
	if string(blob[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadPackage)
	}
	if blob[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadPackage, blob[4])
	}
	pos := 5
	uv := func() (int, error) {
		if pos >= len(blob) {
			return 0, fmt.Errorf("%w: truncated section table", ErrBadPackage)
		}
		v, n := binary.Uvarint(blob[pos:])
		if n <= 0 || v > 1<<31 {
			return 0, fmt.Errorf("%w: bad varint", ErrBadPackage)
		}
		pos += n
		return int(v), nil
	}
	count, err := uv()
	if err != nil {
		return nil, err
	}
	if count > 64 {
		return nil, fmt.Errorf("%w: %d sections", ErrBadPackage, count)
	}
	out := make(map[string][2]int, count)
	for i := 0; i < count; i++ {
		nameLen, err := uv()
		if err != nil {
			return nil, err
		}
		if nameLen > 256 || pos+nameLen > len(blob) {
			return nil, fmt.Errorf("%w: bad section name", ErrBadPackage)
		}
		name := string(blob[pos : pos+nameLen])
		pos += nameLen
		size, err := uv()
		if err != nil {
			return nil, err
		}
		pos += 4 // crc
		if pos+size > len(blob) {
			return nil, fmt.Errorf("%w: section %q truncated", ErrBadPackage, name)
		}
		out[name] = [2]int{pos, size}
		pos += size
	}
	if pos != len(blob) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadPackage, len(blob)-pos)
	}
	return out, nil
}

// Open parses and verifies a .tkg blob.
func Open(blob []byte) (*Package, error) {
	secs, err := Sections(blob)
	if err != nil {
		return nil, err
	}
	read := func(name string) ([]byte, error) {
		loc, ok := secs[name]
		if !ok {
			return nil, fmt.Errorf("%w: missing section %q", ErrBadPackage, name)
		}
		data := blob[loc[0] : loc[0]+loc[1]]
		crc := binary.BigEndian.Uint32(blob[loc[0]-4 : loc[0]])
		if crc32.ChecksumIEEE(data) != crc {
			return nil, fmt.Errorf("%w: section %q checksum mismatch", ErrBadPackage, name)
		}
		return data, nil
	}
	projJSON, err := read(SectionProject)
	if err != nil {
		return nil, err
	}
	video, err := read(SectionVideo)
	if err != nil {
		return nil, err
	}
	proj, err := core.UnmarshalProject(projJSON)
	if err != nil {
		return nil, fmt.Errorf("gamepack: %w", err)
	}
	if _, err := container.Open(video); err != nil {
		return nil, fmt.Errorf("gamepack: video section: %w", err)
	}
	return &Package{Project: proj, Video: video}, nil
}
