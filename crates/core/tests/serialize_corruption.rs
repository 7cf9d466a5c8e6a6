//! Exhaustive corruption handling for the wire format: `from_bytes` is
//! the trust boundary between the durable store and the serving fleet,
//! so for ANY input — every truncation point, every flipped bit, random
//! multi-byte stompings, crafted hostile headers — it must return either
//! a correctly parsed model or `CprError::Corrupt`. Never a panic, and
//! never an allocation beyond a small multiple of the input size (a
//! 30-byte file must not be able to request a 4-billion-cell axis).
//!
//! Every readable format version is swept: v3 bytes come from the
//! current writer; v2 and v1 bytes are hand-crafted here (no writer emits
//! them anymore — their layouts are frozen in the module docs and this
//! test).

use cpr_core::{serialize, CprBuilder, CprError, CprModel, Dataset, Loss};
use cpr_grid::{ParamSpace, ParamSpec, Spacing};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn trained_model() -> CprModel {
    let space = ParamSpace::new(vec![
        ParamSpec::log("m", 32.0, 2048.0),
        ParamSpec::linear("b", 0.0, 10.0),
        ParamSpec::categorical("alg", 2),
    ]);
    let mut rng = StdRng::seed_from_u64(1);
    let mut data = Dataset::new();
    for _ in 0..400 {
        let m = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
        let b = rng.gen::<f64>() * 10.0;
        let alg = rng.gen_range(0..2usize);
        data.push(
            vec![m, b, alg as f64],
            1e-3 * m.powf(1.3) * (1.0 + 0.05 * b) * [1.0, 2.3][alg],
        );
    }
    CprBuilder::new(space)
        .cells(vec![6, 4, 2])
        .rank(2)
        .fit(&data)
        .unwrap()
}

/// Hand-written v1 encoding of a CP model: loss tag + log offset + axes +
/// rank + factors, no optimizer or decomposition tag. Byte-for-byte the
/// layout the v1 writer produced.
fn v1_bytes(model: &CprModel) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend(0x4350_524Du32.to_le_bytes()); // "CPRM"
    b.extend(1u16.to_le_bytes());
    b.push(match model.loss() {
        Loss::LogLeastSquares => 0,
        Loss::MLogQ2 => 1,
    });
    b.extend(model.log_offset().to_le_bytes());
    let grid = model.grid();
    b.extend((grid.order() as u16).to_le_bytes());
    for mode in 0..grid.order() {
        let axis = grid.axis(mode);
        let spec = axis.spec();
        let name = spec.name().as_bytes();
        b.extend((name.len() as u16).to_le_bytes());
        b.extend(name);
        match spec {
            ParamSpec::Numerical {
                lo,
                hi,
                spacing,
                integer,
                ..
            } => {
                b.push(match spacing {
                    Spacing::Uniform => 0,
                    Spacing::Logarithmic => 1,
                });
                b.push(u8::from(*integer));
                b.extend(lo.to_le_bytes());
                b.extend(hi.to_le_bytes());
                b.extend((axis.len() as u32).to_le_bytes());
            }
            ParamSpec::Categorical { cardinality, .. } => {
                b.push(2);
                b.push(0);
                b.extend(0.0f64.to_le_bytes());
                b.extend(0.0f64.to_le_bytes());
                b.extend((*cardinality as u32).to_le_bytes());
            }
        }
    }
    let cp = model.decomposition().as_cp().expect("fixture is CP");
    b.extend((cp.rank() as u16).to_le_bytes());
    for mode in 0..cp.order() {
        let f = cp.factor(mode);
        b.extend((f.rows() as u32).to_le_bytes());
        for &v in f.as_slice() {
            b.extend(v.to_le_bytes());
        }
    }
    b
}

/// Byte offset of the v3 observed-row mask section (it follows the
/// axes) and its length (one byte per grid row of each mode).
fn mask_section(model: &CprModel) -> (usize, usize) {
    let grid = model.grid();
    let axes: usize = (0..grid.order())
        .map(|m| 2 + grid.axis(m).spec().name().len() + 22)
        .sum();
    (18 + axes, grid.dims().iter().sum())
}

/// v2 encoding: the v3 bytes with the version set to 2 and the mask
/// section cut out — byte-for-byte the layout the v2 writer produced.
fn v2_bytes(model: &CprModel) -> Vec<u8> {
    let v3 = serialize::to_bytes(model).to_vec();
    let (off, len) = mask_section(model);
    let mut b = v3[..off].to_vec();
    b[4..6].copy_from_slice(&2u16.to_le_bytes());
    b.extend_from_slice(&v3[off + len..]);
    b
}

/// The only two acceptable outcomes for untrusted bytes.
fn ok_or_corrupt(bytes: &[u8], what: impl std::fmt::Display) {
    let outcome = catch_unwind(AssertUnwindSafe(|| serialize::from_bytes(bytes)));
    match outcome {
        Err(_) => panic!("from_bytes panicked on {what}"),
        Ok(Ok(_)) => {}
        Ok(Err(CprError::Corrupt(_))) => {}
        Ok(Err(other)) => panic!("from_bytes returned non-Corrupt error on {what}: {other}"),
    }
}

#[test]
fn hand_crafted_v1_bytes_parse_bitwise_equal() {
    let model = trained_model();
    let v1 = v1_bytes(&model);
    let restored = serialize::from_bytes(&v1).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..32 {
        let probe = vec![
            32.0 * 64.0_f64.powf(rng.gen::<f64>()),
            rng.gen::<f64>() * 10.0,
            rng.gen_range(0..2usize) as f64,
        ];
        assert_eq!(
            restored.predict(&probe).to_bits(),
            model.predict(&probe).to_bits(),
            "v1 decode drift at {probe:?}"
        );
    }
    // v1 carries no optimizer tag; the loss implies it.
    assert_eq!(restored.loss(), model.loss());
}

#[test]
fn every_truncation_is_corrupt_never_panic() {
    let model = trained_model();
    for (tag, bytes) in [
        ("v3", serialize::to_bytes(&model).to_vec()),
        ("v2", v2_bytes(&model)),
        ("v1", v1_bytes(&model)),
    ] {
        for cut in 0..bytes.len() {
            let outcome = catch_unwind(AssertUnwindSafe(|| serialize::from_bytes(&bytes[..cut])));
            match outcome {
                Err(_) => panic!("{tag} truncated at {cut}: panic"),
                Ok(Err(CprError::Corrupt(_))) => {}
                Ok(Err(other)) => panic!("{tag} truncated at {cut}: non-Corrupt error {other}"),
                Ok(Ok(_)) => panic!("{tag} truncated at {cut}: accepted a strict prefix"),
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_ok_or_corrupt_never_panic() {
    let model = trained_model();
    let bytes = serialize::to_bytes(&model).to_vec();
    for bit in 0..bytes.len() * 8 {
        let mut m = bytes.clone();
        m[bit / 8] ^= 1 << (bit % 8);
        ok_or_corrupt(&m, format_args!("v3 bit {bit}"));
    }
}

#[test]
fn every_single_byte_stomp_on_v1_is_ok_or_corrupt_never_panic() {
    let model = trained_model();
    let bytes = v1_bytes(&model);
    for i in 0..bytes.len() {
        for mask in [0xFF, 0x01, 0x80] {
            let mut m = bytes.clone();
            m[i] ^= mask;
            ok_or_corrupt(&m, format_args!("v1 byte {i} mask {mask:#x}"));
        }
    }
}

#[test]
fn hostile_axis_cell_count_is_corrupt_not_an_allocation() {
    let model = trained_model();
    let mut bytes = serialize::to_bytes(&model).to_vec();
    // v3 layout: magic(4) version(2) optimizer(1) loss(1) log_offset(8)
    // order(2) = 18, then axis 0: name_len(2) + "m"(1) + kind(1) +
    // integer(1) + lo(8) + hi(8) = 21 — the u32 cell count sits at 39.
    let off = 39;
    bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match serialize::from_bytes(&bytes) {
        Err(CprError::Corrupt(msg)) => {
            assert!(
                msg.contains("exceeds payload"),
                "want the allocation guard, got: {msg}"
            );
        }
        other => panic!("4-billion-cell axis must be Corrupt, got {other:?}"),
    }
    // Same guard on a declared count just past what the payload can back.
    let plausible = (bytes.len() as u32) / 8 + 1;
    bytes[off..off + 4].copy_from_slice(&plausible.to_le_bytes());
    assert!(matches!(
        serialize::from_bytes(&bytes),
        Err(CprError::Corrupt(_))
    ));
}

/// v2 bytes (no mask section) decode with every row observed: the same
/// predictions as the model's parts assembled without masks.
#[test]
fn v2_bytes_decode_as_all_observed() {
    let model = trained_model();
    let restored = serialize::from_bytes(&v2_bytes(&model)).unwrap();
    let unmasked = CprModel::from_parts_tagged(
        model.space().clone(),
        &model.grid().dims(),
        model.decomposition().clone(),
        model.optimizer(),
        model.loss(),
        model.log_offset(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..32 {
        let probe = vec![
            32.0 * 64.0_f64.powf(rng.gen::<f64>()),
            rng.gen::<f64>() * 10.0,
            rng.gen_range(0..2usize) as f64,
        ];
        assert_eq!(
            restored.predict(&probe).to_bits(),
            unmasked.predict(&probe).to_bits(),
            "v2 decode drift at {probe:?}"
        );
    }
    assert_eq!(restored.optimizer(), model.optimizer());
}

/// A mask byte other than 0 or 1 is corrupt, wherever it sits in the
/// section; 0 and 1 in any position parse.
#[test]
fn bad_mask_flag_is_corrupt() {
    let model = trained_model();
    let bytes = serialize::to_bytes(&model).to_vec();
    let (off, len) = mask_section(&model);
    assert!(bytes[off..off + len].iter().all(|&b| b <= 1));
    for i in off..off + len {
        for flag in [2u8, 0x80, 0xFF] {
            let mut m = bytes.clone();
            m[i] = flag;
            match serialize::from_bytes(&m) {
                Err(CprError::Corrupt(msg)) => {
                    assert!(msg.contains("observed-row flag"), "byte {i}: {msg}")
                }
                other => panic!("mask byte {i} = {flag}: want Corrupt, got {other:?}"),
            }
        }
        let mut m = bytes.clone();
        m[i] ^= 1;
        assert!(serialize::from_bytes(&m).is_ok(), "flipped flag {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random multi-site corruption: any combination of byte stomps and
    /// an optional truncation still lands in Ok-or-Corrupt.
    #[test]
    fn random_mutations_are_ok_or_corrupt_never_panic(
        stomps in proptest::collection::vec((0usize..4096, 1u8..=255u8), 1..12),
        cut in 0usize..8192, // >= 4096 means "no truncation"
        v1 in 0u8..2,
    ) {
        let model = MODEL.with(|m| m.clone());
        let mut bytes = if v1 == 1 { v1_bytes(&model) } else { serialize::to_bytes(&model).to_vec() };
        for &(i, mask) in &stomps {
            let i = i % bytes.len();
            bytes[i] ^= mask;
        }
        if cut < 4096 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| serialize::from_bytes(&bytes)));
        prop_assert!(
            matches!(outcome, Ok(Ok(_)) | Ok(Err(CprError::Corrupt(_)))),
            "mutated bytes must parse or be Corrupt"
        );
    }
}

thread_local! {
    /// One fit per thread — the proptest loop mutates copies.
    static MODEL: CprModel = trained_model();
}
