package router

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"geoserp/internal/engine"
	"geoserp/internal/index"
	"geoserp/internal/queries"
	"geoserp/internal/webcorpus"
)

// frameFixture is a seed-1 shard node (shard 0 of 2, replica 1) and the
// document table its replies index.
type frameFixture struct {
	docs   []webcorpus.Doc
	corpus uint64
	shard  *ShardHandler
}

func newFrameFixture() frameFixture {
	full := index.BuildFromWeb(studyWeb(1, nil))
	ring := NewRing(2, 0)
	view := full.Shard(func(d webcorpus.Doc) bool { return ring.Owner(d.URL) == 0 })
	return frameFixture{docs: full.Docs(), corpus: index.Fingerprint(full.Docs()),
		shard: NewShardHandler(0, view, WithShardReplica(1))}
}

// reply captures the shard's frame for query q.
func (fx frameFixture) reply(q string) []byte {
	w := httptest.NewRecorder()
	fx.shard.ServeHTTP(w, httptest.NewRequest(http.MethodGet, SearchPath+"?q="+url.QueryEscape(q), nil))
	return w.Body.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	fx := newFrameFixture()
	want := fx.shard.idx.Search("coffee", defaultShardK)
	sr, err := decodeFrame(fx.reply("coffee"), fx.docs)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Shard != 0 || sr.Replica != 1 || sr.Corpus != fx.corpus {
		t.Fatalf("header = shard %d replica %d corpus %x", sr.Shard, sr.Replica, sr.Corpus)
	}
	if len(want) == 0 || !slices.Equal(sr.Hits, want) {
		t.Fatalf("decoded hits differ from the shard's Search:\n got  %v\n want %v", sr.Hits, want)
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	fx := newFrameFixture()
	good := fx.reply("coffee")
	edit := func(f func(b []byte) []byte) []byte { return f(slices.Clone(good)) }
	le := binary.LittleEndian
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"empty", "shorter than its", nil},
		{"short header", "shorter than its", good[:frameHeaderLen-1]},
		{"truncated", "bytes, want", good[:len(good)-1]},
		{"one byte long", "bytes, want", append(slices.Clone(good), 0)},
		{"wrong magic", "bad frame magic", edit(func(b []byte) []byte { b[0] = '{'; return b })},
		{"count too high", "more than", edit(func(b []byte) []byte { le.PutUint32(b[20:], maxShardK+1); return b })},
		{"ID outside table", "outside the", edit(func(b []byte) []byte {
			le.PutUint32(b[frameHeaderLen:], uint32(len(fx.docs)))
			return b
		})},
		{"NaN score", "non-finite", edit(func(b []byte) []byte {
			le.PutUint64(b[frameHeaderLen+4:], math.Float64bits(math.NaN()))
			return b
		})},
		{"infinite score", "non-finite", edit(func(b []byte) []byte {
			le.PutUint64(b[frameHeaderLen+4:], math.Float64bits(math.Inf(-1)))
			return b
		})},
	} {
		if _, err := decodeFrame(tc.b, fx.docs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// countingReader is an endless body that counts the bytes read from it.
type countingReader struct{ n int }

func (r *countingReader) Read(p []byte) (int, error) {
	r.n += len(p)
	return len(p), nil
}

func TestReadFrameBounded(t *testing.T) {
	body := &countingReader{}
	if _, err := readFrame(body, newFrameFixture().docs); err == nil {
		t.Fatal("endless body accepted")
	}
	if body.n > maxFrameLen+1 {
		t.Fatalf("read %d bytes of an oversized body, want at most %d", body.n, maxFrameLen+1)
	}
}

// TestClientRejectsBadReplies drives the client's reply checks: a body
// that does not decode, and a frame from another corpus, are both leg
// errors with the documented details.
func TestClientRejectsBadReplies(t *testing.T) {
	fx := newFrameFixture()
	for _, tc := range []struct {
		name   string
		body   []byte
		detail string
	}{
		{"json", []byte(`{"shard":0,"replica":1,"hits":[]}`), "decode: bad frame magic"},
		{"other corpus", appendFrame(nil, 0, 1, fx.corpus+1, nil),
			"misrouted: corpus " + corpusHex(fx.corpus+1) + ", want " + corpusHex(fx.corpus)},
	} {
		c := NewClient(ClientConfig{
			Shards: [][]string{{"http://a", "http://b"}},
			Docs:   fx.docs,
			Transport: &memTransport{hosts: map[string]http.Handler{
				"b": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(tc.body) }),
			}},
		}, nil)
		res := c.doRequest(context.Background(), 0, 1, engine.RetrieveRequest{Query: "coffee", K: 5}, "")
		if res.outcome != outcomeError || !strings.HasPrefix(res.detail, tc.detail) {
			t.Errorf("%s: outcome %q detail %q, want %q with %q", tc.name, res.outcome, res.detail, outcomeError, tc.detail)
		}
	}
}

// FuzzShardReply feeds the frame decoder arbitrary bytes. It must never
// panic; every frame it accepts must re-encode to the identical bytes and
// carry only IDs that index the document table.
func FuzzShardReply(f *testing.F) {
	fx := newFrameFixture()
	corpus := queries.StudyCorpus()
	for _, q := range []string{"coffee", corpus.Category(queries.Controversial)[0].Term,
		corpus.Category(queries.Politician)[0].Term} {
		frame := fx.reply(q)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(slices.Clone(frame), 0))
	}
	f.Add([]byte{})
	f.Add([]byte(frameMagic))
	f.Add(appendFrame(nil, 0, 1, fx.corpus, nil))
	over := appendFrame(nil, 0, 1, fx.corpus, make([]index.Hit, maxShardK+1))
	f.Add(over)
	f.Add(over[:frameHeaderLen])

	f.Fuzz(func(t *testing.T, b []byte) {
		sr, err := decodeFrame(b, fx.docs)
		if err != nil {
			return
		}
		if re := appendFrame(nil, sr.Shard, sr.Replica, sr.Corpus, sr.Hits); !bytes.Equal(re, b) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", b, re)
		}
		for i, h := range sr.Hits {
			if h.ID < 0 || int(h.ID) >= len(fx.docs) || h.Doc != fx.docs[h.ID] {
				t.Fatalf("hit %d: ID %d does not index the %d-document table", i, h.ID, len(fx.docs))
			}
		}
	})
}
