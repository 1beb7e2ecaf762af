package proof

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cryptoutil"
)

func testLeaves(n int) []hash {
	leaves := make([]hash, n)
	for i := range leaves {
		leaves[i] = merkleLeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return leaves
}

// testPath is the inclusion path of leaves[index], in a store of its own.
func testPath(leaves []hash, index int) [][]byte {
	path, _ := merklePath(nil, make([]hash, merkleHeight(len(leaves))), leaves, index)
	return path
}

func TestMerklePathsShareOneStore(t *testing.T) {
	// Every path of a tree fits the store merklePath is given for the
	// whole tree, and each equals the path computed alone.
	for size := 2; size <= 9; size++ {
		leaves := testLeaves(size)
		store := make([]hash, size*merkleHeight(size))
		var siblings [][]byte
		for index := range leaves {
			from := len(siblings)
			siblings, store = merklePath(siblings, store, leaves, index)
			if got, want := bytes.Join(siblings[from:], nil), bytes.Join(testPath(leaves, index), nil); !bytes.Equal(got, want) {
				t.Fatalf("size %d index %d: shared-store path differs", size, index)
			}
		}
	}
}

func TestMerklePathRoundTripsEverySizeAndIndex(t *testing.T) {
	// Every index of every tree size through two levels past a power of
	// two: the inclusion path must recompute exactly the tree root.
	for size := 1; size <= 9; size++ {
		leaves := testLeaves(size)
		root := merkleRoot(leaves)
		for index := 0; index < size; index++ {
			path := testPath(leaves, index)
			got, err := merkleRootFromPath(leaves[index], uint64(index), uint64(size), path)
			if err != nil {
				t.Fatalf("size %d index %d: %v", size, index, err)
			}
			if got != root {
				t.Fatalf("size %d index %d: recomputed root mismatch", size, index)
			}
		}
	}
}

func TestMerkleRootFromPathRejectsStructuralLies(t *testing.T) {
	leaves := testLeaves(5)
	path := testPath(leaves, 2)

	if _, err := merkleRootFromPath(leaves[2], 5, 5, path); err == nil {
		t.Fatal("index == size accepted")
	}
	if _, err := merkleRootFromPath(leaves[2], 2, 0, nil); err == nil {
		t.Fatal("zero-size tree accepted")
	}
	if _, err := merkleRootFromPath(leaves[2], 2, 5, path[:len(path)-1]); err == nil {
		t.Fatal("truncated path accepted")
	}
	extra := merkleLeafHash([]byte("extra"))
	long := append(append([][]byte{}, path...), extra[:])
	if _, err := merkleRootFromPath(leaves[2], 2, 5, long); err == nil {
		t.Fatal("overlong path accepted")
	}
}

func TestMerklePathWrongIndexChangesRoot(t *testing.T) {
	// A proof presented under the wrong leaf index must not resolve to the
	// same root — that would let one requester's attestation stand in for
	// another's.
	leaves := testLeaves(4)
	root := merkleRoot(leaves)
	path := testPath(leaves, 1)
	got, err := merkleRootFromPath(leaves[1], 0, 4, path)
	if err == nil && got == root {
		t.Fatal("wrong index resolved to the true root")
	}
}

func TestBatchSigPayloadIsDomainSeparated(t *testing.T) {
	root := merkleRoot(testLeaves(3))
	signed := batchSigDigest(root)
	if signed == cryptoutil.Sum(root[:]) {
		t.Fatal("batch payload must not be the bare root")
	}
	if signed != cryptoutil.Sum(append(append([]byte{}, batchSigDomain...), root[:]...)) {
		t.Fatal("batch payload must be the domain tag followed by the root")
	}
}
