package proof

import (
	"fmt"
	"math/bits"

	"repro/internal/cryptoutil"
)

// Merkle tree over attestation metadata, RFC 6962-style: leaf and interior
// hashes are domain-separated (0x00 / 0x01 prefixes) so a leaf can never be
// reinterpreted as an interior node, and trees of non-power-of-two size
// split at the largest power of two strictly less than n. Every
// attestation signs the root once per window (a lone query is a one-leaf
// tree); each requester receives its leaf index plus the sibling-hash
// inclusion path and recomputes the root independently.

var (
	merkleLeafPrefix = []byte{0x00}
	merkleNodePrefix = []byte{0x01}
	// batchSigDomain separates attestation signatures from everything else
	// a peer key signs (transaction digests, hop pins), so a signature over
	// a root can never be replayed as one of those.
	batchSigDomain = []byte("interop-batch-root\x00")
)

// hash is one node of a tree: a SHA-256 output, held by value so that a
// tree's leaves, roots and siblings cost no allocation of their own.
type hash = [cryptoutil.DigestSize]byte

// merkleLeafHash hashes one leaf's content with the leaf domain prefix.
func merkleLeafHash(content []byte) hash {
	return cryptoutil.Sum(merkleLeafPrefix, content)
}

func merkleNodeHash(left, right []byte) hash {
	return cryptoutil.Sum(merkleNodePrefix, left, right)
}

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n. n must be >= 2.
func largestPowerOfTwoBelow(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

// merkleHeight is the longest inclusion path of a tree of n >= 1 leaves.
func merkleHeight(n int) int { return bits.Len(uint(n - 1)) }

// merkleRoot computes the tree root over the given leaf hashes, of which
// there is at least one.
func merkleRoot(leaves []hash) hash {
	if len(leaves) == 1 {
		return leaves[0]
	}
	k := largestPowerOfTwoBelow(len(leaves))
	left, right := merkleRoot(leaves[:k]), merkleRoot(leaves[k:])
	return merkleNodeHash(left[:], right[:])
}

// merklePath appends to path the inclusion proof for leaves[index]: the
// sibling hashes from the leaf up to (excluding) the root, leaf-side first.
// Each sibling is written into the next entry of store, which must have
// room for merkleHeight(len(leaves)) of them, and the rest of store is
// returned, so the paths of a whole tree can share one array.
func merklePath(path [][]byte, store []hash, leaves []hash, index int) ([][]byte, []hash) {
	if len(leaves) <= 1 {
		return path, store
	}
	k := largestPowerOfTwoBelow(len(leaves))
	if index < k {
		path, store = merklePath(path, store, leaves[:k], index)
		store[0] = merkleRoot(leaves[k:])
	} else {
		path, store = merklePath(path, store, leaves[k:], index-k)
		store[0] = merkleRoot(leaves[:k])
	}
	return append(path, store[0][:]), store[1:]
}

// merkleRootFromPath recomputes the root implied by a leaf hash, its index,
// the tree size and an inclusion path (RFC 9162 §2.1.3.2 verification). It
// rejects structurally impossible inputs — index out of range, path too
// short or too long for the claimed size — before doing any hashing it
// can't use.
func merkleRootFromPath(leafHash hash, index, size uint64, path [][]byte) (hash, error) {
	if size == 0 || index >= size {
		return hash{}, fmt.Errorf("proof: merkle index %d out of range for size %d", index, size)
	}
	fn, sn := index, size-1
	root := leafHash
	for _, sibling := range path {
		if sn == 0 {
			return hash{}, fmt.Errorf("proof: merkle path longer than tree height")
		}
		if fn&1 == 1 || fn == sn {
			root = merkleNodeHash(sibling, root[:])
			if fn&1 == 0 {
				for fn&1 == 0 && fn != 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			root = merkleNodeHash(root[:], sibling)
		}
		fn >>= 1
		sn >>= 1
	}
	if sn != 0 {
		return hash{}, fmt.Errorf("proof: merkle path shorter than tree height")
	}
	return root, nil
}

// batchSigDigest is the SHA-256 of the byte string an attestor signs: the
// domain tag followed by the Merkle root over the window's metadata leaf
// hashes.
func batchSigDigest(root hash) hash {
	return cryptoutil.Sum(batchSigDomain, root[:])
}
