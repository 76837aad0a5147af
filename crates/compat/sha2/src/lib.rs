//! Offline stand-in for the subset of the `sha2` crate this workspace
//! uses.
//!
//! The build environment has no access to a crate registry, so the
//! baseline tests hash the system smoke's Chrome trace with this
//! minimal, API-compatible SHA-256 (FIPS 180-4) instead of the real
//! `sha2`: [`Sha256`] through the [`Digest`] trait's `new`, `update`
//! and `finalize`. The digest is returned as a plain `[u8; 32]` rather
//! than a `GenericArray`; both iterate to the same bytes.

#![forbid(unsafe_code)]

/// The streaming hash interface.
pub trait Digest: Sized {
    /// The digest bytes.
    type Output;

    /// A hasher over the empty message.
    fn new() -> Self;

    /// Appends `data` to the message.
    fn update(&mut self, data: impl AsRef<[u8]>);

    /// Pads the message and returns its digest.
    fn finalize(self) -> Self::Output;
}

/// SHA-256 round constants: the first 32 bits of the fractional parts
/// of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The initial hash value: the first 32 bits of the fractional parts
/// of the square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// The partial block not yet compressed (`len % 64` bytes of it).
    block: [u8; 64],
    /// Message length so far, in bytes.
    len: u64,
}

impl Sha256 {
    /// Compresses one 64-byte block into the state.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (h, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha256 {
    type Output = [u8; 32];

    fn new() -> Self {
        Self { state: H0, block: [0; 64], len: 0 }
    }

    fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut data = data.as_ref();
        let fill = (self.len % 64) as usize;
        self.len += data.len() as u64;
        if fill > 0 {
            let take = data.len().min(64 - fill);
            self.block[fill..fill + take].copy_from_slice(&data[..take]);
            data = &data[take..];
            if fill + take < 64 {
                return;
            }
            let block = self.block;
            self.compress(&block);
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
    }

    fn finalize(mut self) -> [u8; 32] {
        let bits = self.len.wrapping_mul(8);
        self.update([0x80]);
        while self.len % 64 != 56 {
            self.update([0]);
        }
        self.update(bits.to_be_bytes());
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The FIPS 180-4 example messages (NIST CSRC SHA-256 examples).
    #[test]
    fn fips_180_4_vectors() {
        assert_eq!(hex(b""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        assert_eq!(hex(b"abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// Feeding a message in pieces hashes it like one `update`.
    #[test]
    fn split_updates_match_one_update() {
        let msg: Vec<u8> = (0..200u8).collect();
        let mut split = Sha256::new();
        for piece in msg.chunks(37) {
            split.update(piece);
        }
        let mut whole = Sha256::new();
        whole.update(&msg);
        assert_eq!(split.finalize(), whole.finalize());
    }
}
