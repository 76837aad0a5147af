//! The binary path end to end: a kernel assembled to machine words,
//! decoded back, and executed must behave identically to the typed
//! original — the property a real binary toolchain would rely on.

use issr::isa::asm::Program;
use issr::isa::{decode_all, encode_all};
use issr::kernels::layout::{alloc_result, place_f64s, place_fiber, Arena};
use issr::kernels::spmspv::{build_spvv_ss, SpvvSsAddrs};
use issr::kernels::spvv::{build_spvv, SpvvAddrs};
use issr::kernels::variant::Variant;
use issr::snitch::cc::{SingleCcSim, SINGLE_CC_ARENA};
use issr::snitch::params::CcParams;
use issr::sparse::gen;

#[test]
fn encoded_kernel_executes_identically() {
    let mut rng = gen::rng(7777);
    let a = gen::sparse_vector::<u16>(&mut rng, 512, 100);
    let b = gen::dense_vector(&mut rng, 512);

    // Stage the workload once.
    let mut arena = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
    let mut staged = SingleCcSim::new(Program::default());
    let fiber = place_fiber(&mut arena, staged.mem.array_mut(), &a);
    let b_addr = place_f64s(&mut arena, staged.mem.array_mut(), &b);
    let out = alloc_result(&mut arena, 1);
    let addrs = SpvvAddrs { a: fiber, b: b_addr, out };

    // Typed program.
    let typed = build_spvv::<u16>(Variant::Issr, addrs);
    // Through the binary encoding and back.
    let words = encode_all(typed.instrs());
    let decoded = decode_all(&words).expect("every word decodes");
    assert_eq!(decoded, typed.instrs(), "decode is the inverse of encode");

    // Execute both; cycle counts and results must match exactly.
    let run = |instrs: Vec<issr::isa::Instr>| {
        let mut asm = issr::isa::Assembler::new();
        for i in instrs {
            asm.push(i);
        }
        let mut sim = SingleCcSim::new(asm.finish().expect("no labels left"));
        sim.mem = {
            let mut staged2 = SingleCcSim::new(Program::default());
            let mut arena2 = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
            let f2 = place_fiber(&mut arena2, staged2.mem.array_mut(), &a);
            let b2 = place_f64s(&mut arena2, staged2.mem.array_mut(), &b);
            let o2 = alloc_result(&mut arena2, 1);
            assert_eq!((f2.vals, b2, o2), (addrs.a.vals, addrs.b, addrs.out));
            staged2.mem
        };
        let summary = sim.run(100_000).expect("finishes");
        (summary.cycles, sim.mem.array().load_f64(out))
    };
    let (c1, r1) = run(typed.instrs().to_vec());
    let (c2, r2) = run(decoded);
    assert_eq!(c1, c2, "cycle-exact equivalence");
    assert_eq!(r1.to_bits(), r2.to_bits(), "bit-exact result");
}

/// The joiner configuration (JOIN_* scfgwi writes, launch pointer)
/// survives the binary encoding: the sparse-sparse kernel decoded from
/// machine words runs cycle- and bit-identically.
#[test]
fn encoded_joiner_kernel_executes_identically() {
    let mut rng = gen::rng(8888);
    let (a, b) = gen::overlapping_pair::<u16>(&mut rng, 1024, 96, 96, 0.5);

    let stage = || {
        let mut arena = Arena::new(SINGLE_CC_ARENA, SingleCcSim::DEFAULT_MEM_BYTES / 2);
        let mut staged = SingleCcSim::with_params(Program::default(), CcParams::sssr());
        let a_addrs = place_fiber(&mut arena, staged.mem.array_mut(), &a);
        let b_addrs = place_fiber(&mut arena, staged.mem.array_mut(), &b);
        let out = alloc_result(&mut arena, 1);
        (staged, SpvvSsAddrs { a: a_addrs, b: b_addrs, out })
    };
    let (_, addrs) = stage();
    let typed = build_spvv_ss::<u16>(Variant::Issr, addrs);
    let words = encode_all(typed.instrs());
    let decoded = decode_all(&words).expect("every word decodes");
    assert_eq!(decoded, typed.instrs(), "decode is the inverse of encode");

    let run = |instrs: Vec<issr::isa::Instr>| {
        let mut asm = issr::isa::Assembler::new();
        for i in instrs {
            asm.push(i);
        }
        let mut sim =
            SingleCcSim::with_params(asm.finish().expect("no labels left"), CcParams::sssr());
        sim.mem = stage().0.mem;
        let summary = sim.run(100_000).expect("finishes");
        (summary.cycles, sim.mem.array().load_f64(addrs.out))
    };
    let (c1, r1) = run(typed.instrs().to_vec());
    let (c2, r2) = run(decoded);
    assert_eq!(c1, c2, "cycle-exact equivalence");
    assert_eq!(r1.to_bits(), r2.to_bits(), "bit-exact result");
    let expect = issr::sparse::reference::spvv_ss(&a, &b);
    assert!((r1 - expect).abs() < 1e-9 * expect.abs().max(1.0));
}
