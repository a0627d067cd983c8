package httpheader

import (
	"net/http"
	"strconv"
	"testing"
)

// FuzzDeadline fuzzes the X-Deadline-Ms codec. No header value may panic
// Deadline; it gives a non-zero deadline exactly when the value is a
// positive base-10 int64, at that many unix milliseconds; and SetDeadline
// writes back a header Deadline reads as the same deadline.
func FuzzDeadline(f *testing.F) {
	for _, v := range []string{"1433116800000", "", "0", "-1", "+5", "007", "soon", "1.5e3", " 1", "0x10",
		"1433116800000ms", "9223372036854775807", "9223372036854775808", "-9223372036854775808"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		d := Deadline(http.Header{DeadlineMs: {v}})
		ms, err := strconv.ParseInt(v, 10, 64)
		switch {
		case err != nil || ms <= 0:
			if !d.IsZero() {
				t.Fatalf("Deadline(%q) = %v, want none", v, d)
			}
		case d.UnixMilli() != ms:
			t.Fatalf("Deadline(%q) = %d ms, want %d", v, d.UnixMilli(), ms)
		}
		h := http.Header{}
		SetDeadline(h, d)
		if again := Deadline(h); !again.Equal(d) {
			t.Fatalf("Deadline(%q) = %v, but after SetDeadline it reads %v (header %q)", v, d, again, h.Get(DeadlineMs))
		}
	})
}
