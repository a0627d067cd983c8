package router

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"geoserp/internal/index"
	"geoserp/internal/webcorpus"
)

// A shard answers /shard/search with one little-endian binary frame:
//
//	offset  size  field
//	0       4     magic "GSF1"
//	4       4     shard ID (u32)
//	8       4     replica ID (u32)
//	12      8     fingerprint (u64, partitionFingerprint)
//	20      4     hit count n (u32, at most maxShardK)
//	24      12·n  n × (doc ID u32, math.Float64bits(score) u64)
//
// Hits carry no documents: every node of a cluster regenerates the same
// document table from the same seed and corpus, so a doc ID suffices and
// the router resolves it through its own table (ClientConfig.Docs). Scores
// cross as their exact bits. The fingerprint makes a router and a shard
// built from different worlds, or cut for different shard counts, fail
// the leg instead of merging the wrong documents. There is one format and
// no negotiation: a router and a shard of different versions fail on the
// magic, so they upgrade together.
const (
	frameMagic     = "GSF1"
	frameHeaderLen = 24
	frameHitLen    = 12
	// maxFrameLen is the largest legal frame: a full maxShardK reply.
	maxFrameLen = frameHeaderLen + frameHitLen*maxShardK
)

// appendFrame appends the frame for one shard reply to b.
func appendFrame(b []byte, shard, replica int, corpus uint64, hits []index.Hit) []byte {
	le := binary.LittleEndian
	b = append(b, frameMagic...)
	b = le.AppendUint32(b, uint32(shard))
	b = le.AppendUint32(b, uint32(replica))
	b = le.AppendUint64(b, corpus)
	b = le.AppendUint32(b, uint32(len(hits)))
	for _, h := range hits {
		b = le.AppendUint32(b, uint32(h.ID))
		b = le.AppendUint64(b, math.Float64bits(h.Score))
	}
	return b
}

// decodeFrame parses one frame, resolving each doc ID to a pointer into
// docs, which the hits share and must not write through. The bytes are
// untrusted: a wrong magic, a count above maxShardK, a length
// other than the count implies, a doc ID outside docs, or a non-finite
// score is an error.
func decodeFrame(b []byte, docs []webcorpus.Doc) (ShardResponse, error) {
	if len(b) < frameHeaderLen {
		return ShardResponse{}, fmt.Errorf("frame of %d bytes is shorter than its %d-byte header", len(b), frameHeaderLen)
	}
	if string(b[:len(frameMagic)]) != frameMagic {
		return ShardResponse{}, fmt.Errorf("bad frame magic %q", b[:len(frameMagic)])
	}
	le := binary.LittleEndian
	n := le.Uint32(b[20:])
	if n > maxShardK {
		return ShardResponse{}, fmt.Errorf("frame claims %d hits, more than %d", n, maxShardK)
	}
	if want := frameHeaderLen + frameHitLen*int(n); len(b) != want {
		return ShardResponse{}, fmt.Errorf("frame of %d hits is %d bytes, want %d", n, len(b), want)
	}
	sr := ShardResponse{
		Shard:   int(le.Uint32(b[4:])),
		Replica: int(le.Uint32(b[8:])),
		Corpus:  le.Uint64(b[12:]),
	}
	if n > 0 {
		sr.Hits = make([]index.Hit, n)
	}
	for i := range sr.Hits {
		p := b[frameHeaderLen+frameHitLen*i:]
		id := le.Uint32(p)
		if id >= uint32(len(docs)) {
			return ShardResponse{}, fmt.Errorf("hit %d: doc ID %d outside the %d-document table", i, id, len(docs))
		}
		score := math.Float64frombits(le.Uint64(p[4:]))
		if math.IsNaN(score) || math.IsInf(score, 0) {
			return ShardResponse{}, fmt.Errorf("hit %d: non-finite score %v", i, score)
		}
		sr.Hits[i] = index.Hit{Doc: &docs[id], Score: score, ID: int32(id)}
	}
	return sr, nil
}

// readFrame reads one reply body and decodes it. It reads at most
// maxFrameLen+1 bytes, so an oversized body fails decoding without being
// buffered in full.
func readFrame(body io.Reader, docs []webcorpus.Doc) (ShardResponse, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxFrameLen+1))
	if err != nil {
		return ShardResponse{}, err
	}
	return decodeFrame(b, docs)
}

// partitionFingerprint is the fingerprint shards send, in every frame and
// on /healthz, and the client expects: index.Fingerprint of the document
// table with the shard count folded in. Every shard view keeps the whole
// table, and consistent hashing gives a shard cut for more shards a subset
// of its slice, so neither the table nor a foreign doc ID betrays a node
// cut for another partition; only the count does.
func partitionFingerprint(docs []webcorpus.Doc, shards int) uint64 {
	return mix64(index.Fingerprint(docs) ^ uint64(shards))
}

// corpusHex renders a fingerprint as /healthz and misrouted details show
// it: 16 hex digits.
func corpusHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }
