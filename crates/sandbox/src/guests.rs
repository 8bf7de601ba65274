//! Reference guest programs.
//!
//! The tests carry a complete **SHA-256 compression kernel in sandbox
//! bytecode** — the analogue of compiling a real algorithm to Wasm, used to
//! prove the VM executes non-trivial programs correctly (output is checked
//! against the native implementation in `distrust-crypto`).
//!
//! The row the Wasm-vs-native study the paper cites (reference \[39\],
//! Jangda et al.) prices for this repository is the threshold-signer
//! guest in `distrust-apps` (Table 3's "Sandbox"): a double-and-add over
//! the share's width-2 NAF, 7 469 host crossings per signature on `e2e`'s
//! share, one per field operation. The study prices one algorithm built
//! two ways (the paper's Wasm build pays 46 %); here native signing runs
//! the endomorphism-split windowed-NAF kernel, a different algorithm, so
//! `e2e`'s `sandbox.overhead_pct` (traced `share_single`) reads a median
//! ≈ 163 %, ≈ 215 % with the binary ladder and its 8 694 crossings. Much
//! of that gap is the algorithm (the host side of the crossings alone
//! reads about twice native's whole signature); the rest is by-name
//! import dispatch and the interpreter loop (ROADMAP's Sandbox item).

use crate::builder::{FuncBuilder, ModuleBuilder};
use crate::isa::Instr;
use crate::module::Module;

/// Builds the "counter" demo application used by the update-flow examples:
/// an app with persistent guest state (a counter at memory address 0) and a
/// version-stamped `get_version` export, so that v1 vs. v2 of "the
/// application code" genuinely differ in both behaviour and digest.
pub fn counter_module(version: u64) -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    // fn 0: bump() -> new counter value
    let mut bump = FuncBuilder::new(0, 0, 1);
    bump.constant(0)
        .constant(0)
        .load64(0)
        .constant(1)
        .add()
        .store64(0)
        .constant(0)
        .load64(0)
        .ret();
    // fn 1: get_version() -> version
    let mut ver = FuncBuilder::new(0, 0, 1);
    ver.constant(version).ret();
    let b = mb.function(bump.build().expect("bump builds"));
    let v = mb.function(ver.build().expect("ver builds"));
    mb.export("bump", b);
    mb.export("get_version", v);
    mb.build()
}

/// Builds a deliberately malicious module that tries to escape the sandbox:
/// it attempts out-of-bounds reads/writes and infinite loops. Used by
/// escape-prevention tests and the update-audit example (the "malicious
/// update" the framework must contain).
pub fn hostile_module() -> Module {
    let mut mb = ModuleBuilder::new(1, 1);
    // fn 0: "oob_read" — read far beyond memory.
    let mut oob = FuncBuilder::new(0, 0, 1);
    oob.constant(u64::MAX / 2).load64(0).ret();
    // fn 1: "spin" — infinite loop.
    let mut spin = FuncBuilder::new(0, 0, 0);
    spin.label("top").jmp("top");
    // fn 2: "grow_bomb" — grow memory until refused, then OOB write.
    let mut bomb = FuncBuilder::new(0, 0, 1);
    bomb.label("grow")
        .constant(1)
        .op(Instr::MemGrow)
        .constant(u64::MAX)
        .op(Instr::Ne)
        .jnz("grow")
        // now write past the end
        .op(Instr::MemSize)
        .constant(crate::module::PAGE_SIZE as u64)
        .op(Instr::Mul)
        .constant(7)
        .store64(0)
        .constant(1)
        .ret();
    let a = mb.function(oob.build().expect("builds"));
    let b = mb.function(spin.build().expect("builds"));
    let c = mb.function(bomb.build().expect("builds"));
    mb.export("oob_read", a);
    mb.export("spin", b);
    mb.export("grow_bomb", c);
    mb.build()
}

/// A SHA-256 compression kernel in sandbox bytecode, built for the tests
/// only: a non-trivial program whose output the native implementation in
/// `distrust-crypto` checks.
#[cfg(test)]
mod sha256_guest {
    use super::*;
    use crate::vm::{Instance, Limits, NoHost, Trap};

    /// Guest memory layout for the SHA-256 module.
    pub mod sha256_layout {
        /// Input block (64 bytes).
        pub const INPUT: u64 = 0;
        /// Hash state: 8 × u64 slots, each holding a 32-bit word.
        pub const STATE: u64 = 256;
        /// Message schedule W[0..64]: 64 × u64 slots.
        pub const W: u64 = 512;
        /// Round constants K[0..64]: 64 × u64 slots (data segment).
        pub const K: u64 = 1024;
    }

    const M32: u64 = 0xffff_ffff;

    const K32: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    const H0: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    /// Builds the SHA-256 guest module.
    ///
    /// Exports:
    /// * `init` — resets the hash state to the SHA-256 IV.
    /// * `compress` — runs the compression function over the 64-byte block at
    ///   [`sha256_layout::INPUT`], updating the state in place.
    ///
    /// Function indices: 0 = init, 1 = compress, 2 = rotr32 helper.
    pub fn sha256_module() -> Module {
        let mut mb = ModuleBuilder::new(1, 1);

        // K constants as a data segment of u64 slots.
        let mut k_bytes = Vec::with_capacity(64 * 8);
        for k in K32 {
            k_bytes.extend_from_slice(&(k as u64).to_le_bytes());
        }
        mb.data(sha256_layout::K as u32, k_bytes);

        // fn 0: init — store the IV into STATE.
        let mut init = FuncBuilder::new(0, 0, 0);
        for (i, h) in H0.iter().enumerate() {
            init.constant(sha256_layout::STATE + (i as u64) * 8)
                .constant(*h as u64)
                .store64(0);
        }
        init.ret();

        // fn 2: rotr32(x, n) -> ((x >> n) | (x << (32 - n))) & M32
        let mut rotr = FuncBuilder::new(2, 0, 1);
        rotr.lget(0)
            .lget(1)
            .shr()
            .lget(0)
            .constant(32)
            .lget(1)
            .sub()
            .shl()
            .or()
            .constant(M32)
            .and()
            .ret();

        // fn 1: compress.
        // Locals: 0=i, 1..=8 = a..h, 9=t1, 10=t2, 11=scratch.
        let mut c = FuncBuilder::new(0, 12, 0);
        const I: u16 = 0;
        const A: u16 = 1; // ..H = 8
        const T1: u16 = 9;
        const T2: u16 = 10;
        const S: u16 = 11;
        let rotr_fn: u16 = 2;

        // --- Phase 1: W[0..16] = big-endian words of the input block.
        c.constant(0).lset(I);
        c.label("w16_loop");
        c.lget(I).constant(16).op(Instr::GeU).jnz("w16_done");
        // w = b0<<24 | b1<<16 | b2<<8 | b3 at base = i*4
        // compute base once into S
        c.lget(I).constant(4).op(Instr::Mul).lset(S);
        c.lget(S)
            .load8(0)
            .constant(24)
            .shl()
            .lget(S)
            .load8(1)
            .constant(16)
            .shl()
            .or()
            .lget(S)
            .load8(2)
            .constant(8)
            .shl()
            .or()
            .lget(S)
            .load8(3)
            .or();
        // store at W + i*8 : need address below value → build addr, swap
        c.lget(I)
            .constant(8)
            .op(Instr::Mul)
            .constant(sha256_layout::W)
            .add()
            .op(Instr::Swap)
            .store64(0);
        c.lget(I).constant(1).add().lset(I).jmp("w16_loop");
        c.label("w16_done");

        // --- Phase 2: W[16..64] message schedule expansion.
        c.constant(16).lset(I);
        c.label("wexp_loop");
        c.lget(I).constant(64).op(Instr::GeU).jnz("wexp_done");
        // s0 = rotr(W[i-15],7) ^ rotr(W[i-15],18) ^ (W[i-15] >> 3)
        let w_addr = |c: &mut FuncBuilder, back: u64| {
            // push W[i-back]
            c.lget(I)
                .constant(back)
                .sub()
                .constant(8)
                .op(Instr::Mul)
                .constant(sha256_layout::W)
                .add()
                .load64(0);
        };
        w_addr(&mut c, 15);
        c.constant(7).call(rotr_fn);
        w_addr(&mut c, 15);
        c.constant(18).call(rotr_fn).xor();
        w_addr(&mut c, 15);
        c.constant(3).shr().xor().lset(T1); // T1 = s0
                                            // s1 = rotr(W[i-2],17) ^ rotr(W[i-2],19) ^ (W[i-2] >> 10)
        w_addr(&mut c, 2);
        c.constant(17).call(rotr_fn);
        w_addr(&mut c, 2);
        c.constant(19).call(rotr_fn).xor();
        w_addr(&mut c, 2);
        c.constant(10).shr().xor().lset(T2); // T2 = s1
                                             // W[i] = (W[i-16] + s0 + W[i-7] + s1) & M32
                                             // target address first:
        c.lget(I)
            .constant(8)
            .op(Instr::Mul)
            .constant(sha256_layout::W)
            .add();
        w_addr(&mut c, 16);
        c.lget(T1).add();
        w_addr(&mut c, 7);
        c.add().lget(T2).add().constant(M32).and().store64(0);
        c.lget(I).constant(1).add().lset(I).jmp("wexp_loop");
        c.label("wexp_done");

        // --- Phase 3: load state into locals a..h.
        for j in 0..8u16 {
            c.constant(sha256_layout::STATE + (j as u64) * 8)
                .load64(0)
                .lset(A + j);
        }

        // --- Phase 4: 64 rounds.
        c.constant(0).lset(I);
        c.label("round_loop");
        c.lget(I).constant(64).op(Instr::GeU).jnz("round_done");
        let (a, b, bb, d, e, f, g, h) = (A, A + 1, A + 2, A + 3, A + 4, A + 5, A + 6, A + 7);
        // S1 = rotr(e,6) ^ rotr(e,11) ^ rotr(e,25)
        c.lget(e).constant(6).call(rotr_fn);
        c.lget(e).constant(11).call(rotr_fn).xor();
        c.lget(e).constant(25).call(rotr_fn).xor().lset(S);
        // ch = (e & f) ^ ((e ^ M32) & g)
        c.lget(e).lget(f).and();
        c.lget(e).constant(M32).xor().lget(g).and().xor();
        // t1 = (h + S1 + ch + K[i] + W[i]) & M32
        c.lget(h).add().lget(S).add();
        c.lget(I)
            .constant(8)
            .op(Instr::Mul)
            .constant(sha256_layout::K)
            .add()
            .load64(0)
            .add();
        c.lget(I)
            .constant(8)
            .op(Instr::Mul)
            .constant(sha256_layout::W)
            .add()
            .load64(0)
            .add()
            .constant(M32)
            .and()
            .lset(T1);
        // S0 = rotr(a,2) ^ rotr(a,13) ^ rotr(a,22)
        c.lget(a).constant(2).call(rotr_fn);
        c.lget(a).constant(13).call(rotr_fn).xor();
        c.lget(a).constant(22).call(rotr_fn).xor().lset(S);
        // maj = (a & b) ^ (a & c) ^ (b & c)
        c.lget(a).lget(b).and();
        c.lget(a).lget(bb).and().xor();
        c.lget(b).lget(bb).and().xor();
        // t2 = (S0 + maj) & M32
        c.lget(S).add().constant(M32).and().lset(T2);
        // rotate registers
        c.lget(g).lset(h);
        c.lget(f).lset(g);
        c.lget(e).lset(f);
        c.lget(d).lget(T1).add().constant(M32).and().lset(e);
        c.lget(bb).lset(d);
        c.lget(b).lset(bb);
        c.lget(a).lset(b);
        c.lget(T1).lget(T2).add().constant(M32).and().lset(a);
        c.lget(I).constant(1).add().lset(I).jmp("round_loop");
        c.label("round_done");

        // --- Phase 5: state[j] = (state[j] + local) & M32.
        for j in 0..8u16 {
            let addr = sha256_layout::STATE + (j as u64) * 8;
            c.constant(addr)
                .constant(addr)
                .load64(0)
                .lget(A + j)
                .add()
                .constant(M32)
                .and()
                .store64(0);
        }
        c.ret();

        let init_idx = mb.function(init.build().expect("init builds"));
        let compress_idx = mb.function(c.build().expect("compress builds"));
        let rotr_idx = mb.function(rotr.build().expect("rotr builds"));
        debug_assert_eq!((init_idx, compress_idx, rotr_idx), (0, 1, 2));
        mb.export("init", init_idx);
        mb.export("compress", compress_idx);
        mb.build()
    }

    /// Runs the SHA-256 guest over `message`, performing the FIPS 180-4 padding
    /// host-side (as the embedding application would), and returns the digest.
    pub fn guest_sha256(instance: &mut Instance, message: &[u8]) -> Result<[u8; 32], Trap> {
        let mut host = NoHost;
        instance.invoke("init", &[], &mut host)?;
        // Pad: message || 0x80 || zeros || 64-bit big-endian bit length.
        let bit_len = (message.len() as u64) * 8;
        let mut padded = message.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&bit_len.to_be_bytes());
        for block in padded.chunks_exact(64) {
            instance.memory.write(sha256_layout::INPUT, block)?;
            instance.invoke("compress", &[], &mut host)?;
        }
        let mut digest = [0u8; 32];
        for i in 0..8 {
            let word = instance
                .memory
                .read(sha256_layout::STATE + (i as u64) * 8, 8)?;
            let w = u64::from_le_bytes(word.try_into().expect("8 bytes")) as u32;
            digest[i * 4..(i + 1) * 4].copy_from_slice(&w.to_be_bytes());
        }
        Ok(digest)
    }

    /// Convenience: one-shot guest SHA-256 with a fresh instance.
    pub fn sha256_in_sandbox(message: &[u8]) -> Result<[u8; 32], Trap> {
        let mut inst = Instance::new(sha256_module(), Limits::default())?;
        guest_sha256(&mut inst, message)
    }
}

#[cfg(test)]
mod tests {
    use super::sha256_guest::{sha256_in_sandbox, sha256_module};
    use super::*;
    use crate::vm::{Host, Instance, Limits, NoHost, Trap};

    #[test]
    fn sha256_module_validates() {
        assert!(sha256_module().validate().is_ok());
    }

    #[test]
    fn guest_sha256_matches_native_empty() {
        let guest = sha256_in_sandbox(b"").unwrap();
        assert_eq!(guest, distrust_crypto::sha256(b""));
    }

    #[test]
    fn guest_sha256_matches_native_abc() {
        let guest = sha256_in_sandbox(b"abc").unwrap();
        assert_eq!(guest, distrust_crypto::sha256(b"abc"));
    }

    #[test]
    fn guest_sha256_matches_native_multiblock() {
        let msg: Vec<u8> = (0u32..300).map(|i| (i % 251) as u8).collect();
        let guest = sha256_in_sandbox(&msg).unwrap();
        assert_eq!(guest, distrust_crypto::sha256(&msg));
    }

    #[test]
    fn guest_sha256_various_lengths() {
        for len in [1usize, 55, 56, 63, 64, 65, 127, 128] {
            let msg = vec![0x61u8; len];
            assert_eq!(
                sha256_in_sandbox(&msg).unwrap(),
                distrust_crypto::sha256(&msg),
                "len={len}"
            );
        }
    }

    #[test]
    fn counter_module_behaviour() {
        let mut inst = Instance::new(counter_module(1), Limits::default()).unwrap();
        let mut host = NoHost;
        assert_eq!(inst.invoke("get_version", &[], &mut host), Ok(Some(1)));
        assert_eq!(inst.invoke("bump", &[], &mut host), Ok(Some(1)));
        assert_eq!(inst.invoke("bump", &[], &mut host), Ok(Some(2)));
        assert_eq!(inst.invoke("bump", &[], &mut host), Ok(Some(3)));
    }

    #[test]
    fn counter_versions_have_distinct_digests() {
        assert_ne!(counter_module(1).digest(), counter_module(2).digest());
    }

    #[test]
    fn hostile_module_is_contained() {
        let mut inst = Instance::new(
            hostile_module(),
            Limits {
                fuel: 1_000_000,
                ..Limits::default()
            },
        )
        .unwrap();
        let mut host = NoHost;
        assert!(matches!(
            inst.invoke("oob_read", &[], &mut host),
            Err(Trap::OutOfBounds { .. })
        ));
        assert_eq!(inst.invoke("spin", &[], &mut host), Err(Trap::OutOfFuel));
        assert!(matches!(
            inst.invoke("grow_bomb", &[], &mut host),
            Err(Trap::OutOfBounds { .. })
        ));
        // The instance (and thus the framework hosting it) survives all of
        // the above and keeps serving.
        assert!(!inst.memory.is_empty());
    }

    /// A module whose `run(n)` calls import 0 `n` times in a loop.
    fn hostcall_loop_module() -> Module {
        let mut mb = ModuleBuilder::new(1, 1);
        let imp = mb.import("env.nop", 0, 0);
        let mut f = FuncBuilder::new(1, 0, 0);
        f.label("loop")
            .lget(0)
            .jz("done")
            .host(imp)
            .lget(0)
            .constant(1)
            .sub()
            .lset(0)
            .jmp("loop")
            .label("done")
            .ret();
        let idx = mb.function(f.build().expect("builds"));
        mb.export("run", idx);
        mb.build()
    }

    /// A host that counts invocations of `env.nop`.
    struct CountingHost {
        calls: u64,
    }

    impl Host for CountingHost {
        fn call(
            &mut self,
            _index: u16,
            _args: &[u64],
            _memory: &mut crate::vm::Memory,
        ) -> Result<Vec<u64>, String> {
            self.calls += 1;
            Ok(vec![])
        }
    }

    #[test]
    fn hostcall_loop_counts() {
        let mut inst = Instance::new(hostcall_loop_module(), Limits::default()).unwrap();
        let mut host = CountingHost { calls: 0 };
        inst.invoke("run", &[100], &mut host).unwrap();
        assert_eq!(host.calls, 100);
    }
}
