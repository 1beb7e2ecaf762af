package proof

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/hex"
	"math/big"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/msp"
	"repro/internal/wire"
)

// Known-answer vectors for every byte format a proof signs, hashes,
// persists or encrypts. Ledgers keep these bytes (a Sealed proof rides in
// every proof-carrying commit and is re-served verbatim on replay; a Bundle
// is a transaction argument), so a change to any constant below is a
// deliberate format change, never the side effect of a refactor.
//
// ECDSA signatures are randomized: a committed signature is pinned by
// verifying it against the committed attestor key, not by byte equality.

const (
	// Inputs.
	vectorNonceHex = "000102030405060708090a0b0c0d0e0f1011121314151617"
	// vectorAttestorPubHex is the uncompressed P-256 point of the attestor
	// key (scalar 0x33 repeated) that made the committed signatures.
	vectorAttestorPubHex = "0451a7580833898ea1b183cbd7350a4099078c6ef1c1e18e970cd7683035f25e7d0110522712b0b5a7cff081685486984a94e6831edac46e7360fa9d834a7a81a1"

	// Digests and the signed metadata.
	vectorQueryDigestHex  = "ca6eef2678b115aa2cafac19b1766bde69b701bc017f036febd46dbaadc7dc38"
	vectorPolicyDigestHex = "22e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d744"
	vectorMetadataHex     = "0a0974726164656c656e73121073656c6c65722d6f72672d70656572301a0a73656c6c65722d6f72672220ca6eef2678b115aa2cafac19b1766bde69b701bc017f036febd46dbaadc7dc382a20f093853e023798ef8ea70f602b59d47301a30d43930d38d06447f196741ed78d3218000102030405060708090a0b0c0d0e0f1011121314151617388080a8b1e39fe7cb17422022e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d744"
	vectorSingleSigHex    = "304402204ed13ee6cae35c97f9748ccf433a89483d9067f66aafbc82a673025f06997b3502203ad52e37f4b7b612bbb0cb5dfb5e673715ecec0b9553c645a5aa50d3923540e9"

	// A three-query window whose leaf 1 is vectorMetadataHex.
	vectorBatchDomainHex = "696e7465726f702d62617463682d726f6f7400"
	vectorBatchRootHex   = "721ba5f661d2e5503a05b34f1fcd8fa8c533f5ce0ac5865acf4e157523c70717"
	vectorBatchPathHex   = "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca267"
	vectorBatchSigHex    = "3046022100c983fb532cee8a14b00de3ff353d31d6c6230e70d49f87e75fc679bb789de8f0022100b5a2b002c8c57965f754eb14a78e2fdee6976bc47193f3c1227bab5bfabc260f"

	// Persisted forms.
	vectorSealedHex = "0a20ca6eef2678b115aa2cafac19b1766bde69b701bc017f036febd46dbaadc7dc38122022e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d744188080a8b1e39fe7cb17221b73656c6c65722d6f72672f73656c6c65722d6f72672d7065657230221d636172726965722d6f72672f636172726965722d6f72672d70656572302abc01120a656e632d726573756c741a84010a1073656c6c65722d6f72672d7065657230120a73656c6c65722d6f72671a06636572742d612206656e632d6d642a057369672d61300338014220305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b74220fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca2674a0365706850072a2022e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d74432036570683807"
	vectorBundleHex = "0a0974726164656c656e7312107b22626c4964223a22626c2d3737227d1a18000102030405060708090a0b0c0d0e0f10111213141516172288020a06636572742d6112b3010a0974726164656c656e73121073656c6c65722d6f72672d70656572301a0a73656c6c65722d6f72672220ca6eef2678b115aa2cafac19b1766bde69b701bc017f036febd46dbaadc7dc382a20f093853e023798ef8ea70f602b59d47301a30d43930d38d06447f196741ed78d3218000102030405060708090a0b0c0d0e0f1011121314151617388080a8b1e39fe7cb17422022e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d7441a46304402204ed13ee6cae35c97f9748ccf433a89483d9067f66aafbc82a673025f06997b3502203ad52e37f4b7b612bbb0cb5dfb5e673715ecec0b9553c645a5aa50d3923540e9200122d0020a06636572742d6112b3010a0974726164656c656e73121073656c6c65722d6f72672d70656572301a0a73656c6c65722d6f72672220ca6eef2678b115aa2cafac19b1766bde69b701bc017f036febd46dbaadc7dc382a20f093853e023798ef8ea70f602b59d47301a30d43930d38d06447f196741ed78d3218000102030405060708090a0b0c0d0e0f1011121314151617388080a8b1e39fe7cb17422022e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d7441a483046022100c983fb532cee8a14b00de3ff353d31d6c6230e70d49f87e75fc679bb789de8f0022100b5a2b002c8c57965f754eb14a78e2fdee6976bc47193f3c1227bab5bfabc260f200328013220305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b73220fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca2672a20ca6eef2678b115aa2cafac19b1766bde69b701bc017f036febd46dbaadc7dc38322022e3198f79dead6cd0cf5a161e072790fdd8603add6ac47c273299e757d1d744388080a8b1e39fe7cb17"

	// A sessioned envelope of vectorMetadataHex: client scalar 0x11
	// repeated, session-ephemeral scalar 0x22 repeated, generation 7,
	// context vectorQueryDigestHex, GCM nonce 0x44 repeated.
	vectorClientScalarHex  = "1111111111111111111111111111111111111111111111111111111111111111"
	vectorSessionScalarHex = "2222222222222222222222222222222222222222222222222222222222222222"
	vectorSessionGen       = 7
	vectorSessionPointHex  = "04d65a93977caa3d1b081852ff57a79e465f1660577304baead505dd3a48589cf350185e895372df6221ea3a137557e473fddb6755f05bd507c3c533fce9c91285"
	vectorEnvelopeHex      = "444444444444444444444444bccb9b677020c307e81fe4c68aa7c25b95b2c9d19508893afd10390fb3d478069e66f03bd1d53403734fe9c9a9551cfa9ea00b0b56f3b0f4bf1ed6a8bdbc2585474a34430e57372fd9d1310d7ee9153db3e746d87aae42c7bd5870f12f77c7c1a990e524f4027d9a87606ccb6e767cdfa2ce5a1dd54e7ccbc79d105ad0087dba7f5e0a5c27beaaeac45bf24ebfb8e3427a9b280c99d26c2163a32b581f79f80d27d6cf545d72ef562a4d4a47e9ba9669fbd4356f9ac647a413498a8f5dc45592e0f6bc"
)

// vectorMerkle holds, for window sizes 1-9 over testLeaves(n), the root
// and every leaf's inclusion path (sibling hashes concatenated, leaf side
// first).
var vectorMerkle = []struct {
	root  string
	paths []string
}{
	{"305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7", []string{""}},
	{"60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616f", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7"}},
	{"cf763a041c81ceef1578a6083f75c61bef2e0014f2a3e683a97fcfca5be7f19a", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616ffca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca267", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca267", "60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc"}},
	{"bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616fbd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7bd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69", "f76836325aec5699d8d71f8e42e9d47c5c29b08059ba296384f7ca40ad3a40ae60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc", "fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca26760a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc"}},
	{"00d21829a5503145348abcf712513eacf2a274211ad83e970202bb5b6d80b286", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616fbd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69ea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398ba", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7bd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69ea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398ba", "f76836325aec5699d8d71f8e42e9d47c5c29b08059ba296384f7ca40ad3a40ae60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdcea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398ba", "fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca26760a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdcea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398ba", "bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3"}},
	{"160cf1a616e8792f9078a9665cb06520d95a33f467d0826f2310219d31383d73", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616fbd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7bd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376", "f76836325aec5699d8d71f8e42e9d47c5c29b08059ba296384f7ca40ad3a40ae60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376", "fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca26760a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376", "8f1593cb92f429d9340b9bbc1f0bb122adf8026c42a4a42142e2168931727236bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3", "ea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398babdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3"}},
	{"0b007fb915eb9b2a146f54b1c86ec53b664f8e455b7660b0b6ee13edc0d921c0", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616fbd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff698eae6bd3b3a07f1f75ee72a531629e6eb31e42e62f760e47de52a53c3641ef23", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7bd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff698eae6bd3b3a07f1f75ee72a531629e6eb31e42e62f760e47de52a53c3641ef23", "f76836325aec5699d8d71f8e42e9d47c5c29b08059ba296384f7ca40ad3a40ae60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc8eae6bd3b3a07f1f75ee72a531629e6eb31e42e62f760e47de52a53c3641ef23", "fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca26760a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdc8eae6bd3b3a07f1f75ee72a531629e6eb31e42e62f760e47de52a53c3641ef23", "8f1593cb92f429d9340b9bbc1f0bb122adf8026c42a4a42142e2168931727236676f3782f5b3a5fb4370ed49572cedc523f4a66322269c85f2af0509d17b0a4dbdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3", "ea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398ba676f3782f5b3a5fb4370ed49572cedc523f4a66322269c85f2af0509d17b0a4dbdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3", "985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3"}},
	{"ca6b7b3e674ac86c1027b59c87c064fc3bc27b313294c75f83bd05fdd13f0dcf", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616fbd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69f58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7bd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69f58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a", "f76836325aec5699d8d71f8e42e9d47c5c29b08059ba296384f7ca40ad3a40ae60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdcf58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a", "fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca26760a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdcf58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a", "8f1593cb92f429d9340b9bbc1f0bb122adf8026c42a4a42142e2168931727236398ebdeb46e179eeffacef4635fd30410954e169b88e22741fa96cffb1022a85bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3", "ea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398ba398ebdeb46e179eeffacef4635fd30410954e169b88e22741fa96cffb1022a85bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3", "060242692909024231d050c5d4434146ba77da322d450286f577c9f951615d53985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3", "676f3782f5b3a5fb4370ed49572cedc523f4a66322269c85f2af0509d17b0a4d985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab3"}},
	{"1374d3a5ecbef4cd7c109e5d0127955f4ef014756496d70a0f99f65aa0ac8a30", []string{"3145c409f259b7c53e32036090ff76751025a2498ba9823ef718cac50b4e616fbd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69f58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a95ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "305df59f9590c3c9ac63d2b2743c388e3792449078cebf7fb3dbe6471643b2b7bd45ff28796704d88bdac51b1df553fda59837b616d6d1cb2114dbc3b087ff69f58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a95ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "f76836325aec5699d8d71f8e42e9d47c5c29b08059ba296384f7ca40ad3a40ae60a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdcf58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a95ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "fca89f57c9f8c8eb4047a7ff9d333acf9e0f3384b20b255bceab0f216dcca26760a53eed0de87a90c8e59427c59c46253c33a76a09502a51801300927b7e6bdcf58aaab46122102d66b00c5eb50b13dd763b5f800139b424fda8b1cacae1408a95ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "8f1593cb92f429d9340b9bbc1f0bb122adf8026c42a4a42142e2168931727236398ebdeb46e179eeffacef4635fd30410954e169b88e22741fa96cffb1022a85bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab395ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "ea9fc1a1b6e191b460d0d6306e3e870c173f39330f13cda1b70cfc72bdc398ba398ebdeb46e179eeffacef4635fd30410954e169b88e22741fa96cffb1022a85bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab395ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "060242692909024231d050c5d4434146ba77da322d450286f577c9f951615d53985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab395ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "676f3782f5b3a5fb4370ed49572cedc523f4a66322269c85f2af0509d17b0a4d985bb5d36b927800876871da925a7e82abe83a9ddba5882920a007a55ea2b376bdd1c5ff55b19cb6b0e7c761bf9a6ccaa27fbbfc07b74f1fabb6e911a0bd2ab395ceab0ef2c3135bf4ede6c0bdbed41b01c30848c09b1d79deb7c396fbc77667", "ca6b7b3e674ac86c1027b59c87c064fc3bc27b313294c75f83bd05fdd13f0dcf"}},
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad vector hex: %v", err)
	}
	return b
}

// vectorKey returns the P-256 key with the given scalar.
func vectorKey(t *testing.T, scalarHex string) *ecdsa.PrivateKey {
	t.Helper()
	scalar := unhex(t, scalarHex)
	k, err := ecdh.P256().NewPrivateKey(scalar)
	if err != nil {
		t.Fatalf("vector scalar: %v", err)
	}
	point := k.PublicKey().Bytes()
	return &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{Curve: elliptic.P256(), X: new(big.Int).SetBytes(point[1:33]), Y: new(big.Int).SetBytes(point[33:])},
		D:         new(big.Int).SetBytes(scalar),
	}
}

func vectorAttestorPub(t *testing.T) *ecdsa.PublicKey {
	t.Helper()
	point := unhex(t, vectorAttestorPubHex)
	x, y := new(big.Int).SetBytes(point[1:33]), new(big.Int).SetBytes(point[33:])
	return &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
}

// vectorSpec is the fixed build spec behind every vector.
func vectorSpec(t *testing.T) *Spec {
	t.Helper()
	nonce := unhex(t, vectorNonceHex)
	return &Spec{
		NetworkID:    "tradelens",
		QueryDigest:  QueryDigest("tradelens", "default", "TradeLensCC", "GetBillOfLading", [][]byte{[]byte("po-1001")}, nonce),
		PolicyDigest: PolicyDigest("AND('seller-org','carrier-org')"),
		Result:       []byte(`{"blId":"bl-77"}`),
		Nonce:        nonce,
		Now:          time.Unix(1_700_000_000, 0),
	}
}

var vectorAttestor = &msp.Identity{Name: "seller-org-peer0", OrgID: "seller-org"}

func checkHex(t *testing.T, name string, got []byte, want string) {
	t.Helper()
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("%s bytes changed:\n got %s\nwant %s", name, h, want)
	}
}

func TestKnownAnswerMetadata(t *testing.T) {
	spec := vectorSpec(t)
	checkHex(t, "QueryDigest", spec.QueryDigest, vectorQueryDigestHex)
	checkHex(t, "PolicyDigest", spec.PolicyDigest, vectorPolicyDigestHex)
	plain := metadataEnvelope(vectorAttestor, spec)[cryptoutil.EnvelopeNonceSize:]
	checkHex(t, "MetadataPlain", plain, vectorMetadataHex)
	// A lone attestation signs the domain-separated root of a one-leaf
	// tree: the leaf hash of the metadata bytes.
	signed := batchSigDigest(merkleLeafHash(unhex(t, vectorMetadataHex)))
	if err := cryptoutil.VerifyDigest(vectorAttestorPub(t), signed[:], unhex(t, vectorSingleSigHex)); err != nil {
		t.Fatalf("committed one-leaf signature: %v", err)
	}
}

func TestKnownAnswerMerkle(t *testing.T) {
	domain := vectorBatchDomainHex
	for n := 1; n <= 9; n++ {
		want := vectorMerkle[n-1]
		leaves := testLeaves(n)
		root := merkleRoot(leaves)
		checkHex(t, "root", root[:], want.root)
		signed := batchSigDigest(root)
		checkHex(t, "batchSigDigest", signed[:], hex.EncodeToString(cryptoutil.Digest(unhex(t, domain+want.root))))
		for i := 0; i < n; i++ {
			path := testPath(leaves, i)
			checkHex(t, "merklePath", bytes.Join(path, nil), want.paths[i])
			// The committed path recomputes the committed root.
			committed := unhex(t, want.paths[i])
			var siblings [][]byte
			for len(committed) > 0 {
				siblings, committed = append(siblings, committed[:32]), committed[32:]
			}
			got, err := merkleRootFromPath(leaves[i], uint64(i), uint64(n), siblings)
			if err != nil {
				t.Fatalf("size %d index %d: %v", n, i, err)
			}
			checkHex(t, "root from path", got[:], want.root)
		}
	}

	// The batched signature covers the domain-separated root of a window
	// whose leaf 1 is the vector metadata.
	leaf := merkleLeafHash(unhex(t, vectorMetadataHex))
	window := []hash{merkleLeafHash([]byte("leaf-0")), leaf, merkleLeafHash([]byte("leaf-2"))}
	root := merkleRoot(window)
	checkHex(t, "batch root", root[:], vectorBatchRootHex)
	checkHex(t, "batch path", bytes.Join(testPath(window, 1), nil), vectorBatchPathHex)
	payload := unhex(t, vectorBatchDomainHex+vectorBatchRootHex)
	if err := cryptoutil.VerifyDigest(vectorAttestorPub(t), cryptoutil.Digest(payload), unhex(t, vectorBatchSigHex)); err != nil {
		t.Fatalf("committed batch signature: %v", err)
	}
}

func vectorBatchPath(t *testing.T) [][]byte {
	t.Helper()
	p := unhex(t, vectorBatchPathHex)
	return [][]byte{p[:32], p[32:]}
}

func TestKnownAnswerSealed(t *testing.T) {
	spec := vectorSpec(t)
	resp := &wire.QueryResponse{
		EncryptedResult:   []byte("enc-result"),
		PolicyDigest:      spec.PolicyDigest,
		SessionEphemeral:  []byte("eph"),
		SessionGeneration: 7,
		Attestations: []wire.Attestation{{
			PeerName: "seller-org-peer0", OrgID: "seller-org", CertPEM: []byte("cert-a"),
			EncryptedMetadata: []byte("enc-md"), Signature: []byte("sig-a"),
			BatchSize: 3, BatchIndex: 1, BatchPath: vectorBatchPath(t),
			SessionEphemeral: []byte("eph"), SessionGeneration: 7,
		}},
	}
	sealed := &Sealed{
		QueryDigest:  spec.QueryDigest,
		PolicyDigest: spec.PolicyDigest,
		UnixNano:     uint64(spec.Now.UnixNano()),
		Attestors:    []string{"seller-org/seller-org-peer0", "carrier-org/carrier-org-peer0"},
		Response:     resp.Marshal(),
	}
	checkHex(t, "Sealed", sealed.Marshal(), vectorSealedHex)

	decoded, err := UnmarshalSealed(unhex(t, vectorSealedHex))
	if err != nil {
		t.Fatalf("UnmarshalSealed: %v", err)
	}
	checkHex(t, "Sealed re-encoding", decoded.Marshal(), vectorSealedHex)
	if _, err := decoded.OpenWire(); err != nil {
		t.Fatalf("OpenWire: %v", err)
	}
}

func TestKnownAnswerBundle(t *testing.T) {
	spec := vectorSpec(t)
	plain := unhex(t, vectorMetadataHex)
	b := &Bundle{
		SourceNetwork: spec.NetworkID,
		Result:        spec.Result,
		Nonce:         spec.Nonce,
		QueryDigest:   spec.QueryDigest,
		PolicyDigest:  spec.PolicyDigest,
		UnixNano:      uint64(spec.Now.UnixNano()),
		Elements: []Element{
			{CertPEM: []byte("cert-a"), Metadata: plain, Signature: unhex(t, vectorSingleSigHex), BatchSize: 1},
			{CertPEM: []byte("cert-a"), Metadata: plain, Signature: unhex(t, vectorBatchSigHex),
				BatchSize: 3, BatchIndex: 1, BatchPath: vectorBatchPath(t)},
		},
	}
	checkHex(t, "Bundle", b.Marshal(), vectorBundleHex)

	decoded, err := UnmarshalBundle(unhex(t, vectorBundleHex))
	if err != nil {
		t.Fatalf("UnmarshalBundle: %v", err)
	}
	checkHex(t, "Bundle re-encoding", decoded.Marshal(), vectorBundleHex)
	// Each decoded element's signature verifies over the root its
	// inclusion path implies: a one-leaf tree, then a window of three.
	pub := vectorAttestorPub(t)
	for i, el := range decoded.Elements {
		root, err := merkleRootFromPath(merkleLeafHash(el.Metadata), el.BatchIndex, el.BatchSize, el.BatchPath)
		if err != nil {
			t.Fatalf("element %d path: %v", i, err)
		}
		signed := batchSigDigest(root)
		if err := cryptoutil.VerifyDigest(pub, signed[:], el.Signature); err != nil {
			t.Fatalf("element %d: %v", i, err)
		}
	}
}

func TestKnownAnswerSessionEnvelope(t *testing.T) {
	session, err := ecdh.P256().NewPrivateKey(unhex(t, vectorSessionScalarHex))
	if err != nil {
		t.Fatalf("session scalar: %v", err)
	}
	checkHex(t, "session point", session.PublicKey().Bytes(), vectorSessionPointHex)
	point, envelope := unhex(t, vectorSessionPointHex), unhex(t, vectorEnvelopeHex)
	// One Recipient opens the envelope twice: cold, running the agreement,
	// then warm, from the agreement it remembered for the point.
	warm := cryptoutil.NewRecipient(vectorKey(t, vectorClientScalarHex))
	for _, pass := range []string{"cold", "warm"} {
		got, err := warm.Open(nil, point, vectorSessionGen, unhex(t, vectorQueryDigestHex), envelope)
		if err != nil {
			t.Fatalf("%s open: %v", pass, err)
		}
		checkHex(t, pass+" opened envelope", got, vectorMetadataHex)
	}
	// The generation and the context are bound into the key: neither may
	// be swapped, on a fresh Recipient or on the warm one — the remembered
	// agreement does not carry those bindings, the per-envelope key does.
	for name, r := range map[string]*cryptoutil.Recipient{
		"fresh": cryptoutil.NewRecipient(vectorKey(t, vectorClientScalarHex)),
		"warm":  warm,
	} {
		if _, err := r.Open(nil, point, vectorSessionGen+1, unhex(t, vectorQueryDigestHex), envelope); err == nil {
			t.Fatalf("%s recipient opened the envelope under another generation", name)
		}
		if _, err := r.Open(nil, point, vectorSessionGen, unhex(t, vectorPolicyDigestHex), envelope); err == nil {
			t.Fatalf("%s recipient opened the envelope under another context", name)
		}
	}
}
