package nfs

import (
	"bytes"
	"testing"
)

// FuzzNFSDispatch feeds raw request bytes to the server's dispatcher, as
// a datagram off the wire would arrive, against a store holding the root
// directory and one file. No input may panic the server; a request long
// enough to carry an xid must get it echoed; replaying a request must
// return the same reply (the idempotency the stateless protocol relies
// on); and every file must keep its size attribute equal to its data
// length and within MaxFileSize.
func FuzzNFSDispatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, req []byte) {
		srv := NewServer()
		srv.AddFile("f", []byte("0123456789"))
		reply := srv.dispatch(req)
		if len(reply) < 8 {
			t.Fatalf("reply %x shorter than xid+status", reply)
		}
		if len(req) >= 20 && !bytes.Equal(reply[:4], req[:4]) {
			t.Fatalf("reply xid %x, request xid %x", reply[:4], req[:4])
		}
		if again := srv.dispatch(req); !bytes.Equal(again, reply) {
			t.Fatalf("replayed request got %x, first reply %x", again, reply)
		}
		for fh, file := range srv.files {
			if int(file.attr.Size) != len(file.data) || len(file.data) > MaxFileSize {
				t.Fatalf("file %d: size attr %d, %d data bytes", fh, file.attr.Size, len(file.data))
			}
		}
	})
}
