package server

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestAppendJSONStringMatchesMarshal pins the hand-rolled string encoder
// to encoding/json on random strings drawn to hit every escape: control
// bytes, quotes, HTML characters, invalid UTF-8, U+2028 and U+2029.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	pieces := []string{"a", "Z", " ", `"`, `\`, "<", ">", "&", "\b", "\f", "\n", "\r", "\t",
		"\x00", "\x1f", "\x7f", "é", "€", "😀", "\u2028", "\u2029", "\xff", "\xe2\x80", "\xed\xa0\x80"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var s string
		for n := rng.Intn(8); n > 0; n-- {
			s += pieces[rng.Intn(len(pieces))]
		}
		want, _ := json.Marshal(s)
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("%q: got %s, want %s", s, got[1:], want)
		}
	}
}
