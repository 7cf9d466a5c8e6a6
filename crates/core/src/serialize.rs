//! Compact binary serialization of trained CPR models.
//!
//! The paper measures model size by dumping fitted models to a file; this
//! module makes that concrete for CPR with a versioned little-endian format
//! (magic `CPRM`). Only the inference state is stored: parameter specs,
//! per-mode cell counts, the loss and optimizer tags, the observed-row
//! masks, and the decomposition (CP factor matrices, or Tucker factors plus
//! core).
//!
//! ## Version history
//!
//! * **v1** — loss tag + CP factors only (ALS/AMN era). Still readable:
//!   v1 bytes deserialize into a CP model whose optimizer tag is implied
//!   from the loss (`LogLeastSquares → Als`, `MLogQ2 → Amn`).
//! * **v2** — adds an explicit [`Optimizer`] tag and a decomposition tag
//!   (`0` = CP, `1` = Tucker with per-mode multilinear ranks and a dense
//!   core), so Tucker-ALS models round-trip and the optimizer survives
//!   reserialization. Still readable, as all-observed (see v3).
//! * **v3** — v2 plus the observed-row masks, between the axes and the
//!   decomposition tag: per mode, one byte per grid row, `1` if training
//!   observed any cell in that row and `0` if not (any other byte is
//!   corrupt). The masks decide where a stencil collapses to a point
//!   (Eq. 5 masking), so a restored model serves exactly what its trainer
//!   served; v1/v2 files carry none and decode with every row observed.
//!   Writers emit v3.

use crate::error::{CprError, Result};
use crate::model::{CprModel, Loss};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cpr_completion::Optimizer;
use cpr_grid::{ParamSpace, ParamSpec, Spacing};
use cpr_tensor::{CpDecomp, Decomposition, DenseTensor, Matrix, TuckerDecomp};

const MAGIC: u32 = 0x4350_524D; // "CPRM"
const VERSION: u16 = 3;

const DECOMP_CP: u8 = 0;
const DECOMP_TUCKER: u8 = 1;

fn loss_tag(loss: Loss) -> u8 {
    match loss {
        Loss::LogLeastSquares => 0,
        Loss::MLogQ2 => 1,
    }
}

fn loss_from_tag(tag: u8) -> Result<Loss> {
    match tag {
        0 => Ok(Loss::LogLeastSquares),
        1 => Ok(Loss::MLogQ2),
        other => Err(CprError::Corrupt(format!("bad loss tag {other}"))),
    }
}

/// Wire tags are **frozen** — explicit here, never derived from enum
/// order, so reordering or extending [`Optimizer`] cannot silently change
/// the meaning of persisted files (pinned by `optimizer_wire_tags_frozen`).
fn optimizer_tag(opt: Optimizer) -> u8 {
    match opt {
        Optimizer::Als => 0,
        Optimizer::Amn => 1,
        Optimizer::Ccd => 2,
        Optimizer::Sgd => 3,
        Optimizer::TuckerAls => 4,
    }
}

fn optimizer_from_tag(tag: u8) -> Result<Optimizer> {
    Ok(match tag {
        0 => Optimizer::Als,
        1 => Optimizer::Amn,
        2 => Optimizer::Ccd,
        3 => Optimizer::Sgd,
        4 => Optimizer::TuckerAls,
        other => return Err(CprError::Corrupt(format!("bad optimizer tag {other}"))),
    })
}

/// Serialize a trained model to bytes (current version: v3).
pub fn to_bytes(model: &CprModel) -> Bytes {
    let mut buf = BytesMut::with_capacity(model.size_bytes() + 256);
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(optimizer_tag(model.optimizer()));
    buf.put_u8(loss_tag(model.loss()));
    buf.put_f64_le(model.log_offset());
    let grid = model.grid();
    buf.put_u16_le(grid.order() as u16);
    for mode in 0..grid.order() {
        let axis = grid.axis(mode);
        let spec = axis.spec();
        let name = spec.name().as_bytes();
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name);
        match spec {
            ParamSpec::Numerical {
                lo,
                hi,
                spacing,
                integer,
                ..
            } => {
                buf.put_u8(match spacing {
                    Spacing::Uniform => 0,
                    Spacing::Logarithmic => 1,
                });
                buf.put_u8(u8::from(*integer));
                buf.put_f64_le(*lo);
                buf.put_f64_le(*hi);
                buf.put_u32_le(axis.len() as u32);
            }
            ParamSpec::Categorical { cardinality, .. } => {
                buf.put_u8(2);
                buf.put_u8(0);
                buf.put_f64_le(0.0);
                buf.put_f64_le(0.0);
                buf.put_u32_le(*cardinality as u32);
            }
        }
    }
    for mask in model.row_observed() {
        for &observed in mask {
            buf.put_u8(u8::from(observed));
        }
    }
    match model.decomposition() {
        Decomposition::Cp(cp) => {
            buf.put_u8(DECOMP_CP);
            buf.put_u16_le(cp.rank() as u16);
            for mode in 0..cp.order() {
                let f = cp.factor(mode);
                buf.put_u32_le(f.rows() as u32);
                for &v in f.as_slice() {
                    buf.put_f64_le(v);
                }
            }
        }
        Decomposition::Tucker(t) => {
            buf.put_u8(DECOMP_TUCKER);
            for &r in t.ranks() {
                buf.put_u16_le(r as u16);
            }
            for mode in 0..t.order() {
                let f = t.factor(mode);
                buf.put_u32_le(f.rows() as u32);
                for &v in f.as_slice() {
                    buf.put_f64_le(v);
                }
            }
            for &v in t.core().as_slice() {
                buf.put_f64_le(v);
            }
        }
    }
    buf.freeze()
}

/// Final-assembly errors (`from_parts*` refusing structurally
/// inconsistent parts, e.g. factor dims vs grid dims) surface as
/// `InvalidConfig` from the constructors, but when they arise from wire
/// bytes the bytes are corrupt — remap so `from_bytes` has exactly one
/// failure mode for untrusted input.
fn as_corrupt(e: CprError) -> CprError {
    match e {
        CprError::Corrupt(_) => e,
        other => CprError::Corrupt(format!("inconsistent model parts: {other}")),
    }
}

fn need(data: &&[u8], n: usize, what: &str) -> Result<()> {
    if data.remaining() < n {
        Err(CprError::Corrupt(format!("truncated while reading {what}")))
    } else {
        Ok(())
    }
}

/// Shared axis-table reader (identical layout in every version): returns the
/// parameter specs and per-mode cell counts.
fn read_axes(data: &mut &[u8], order: usize) -> Result<(Vec<ParamSpec>, Vec<usize>)> {
    let mut specs = Vec::with_capacity(order);
    let mut cells = Vec::with_capacity(order);
    for _ in 0..order {
        need(data, 2, "name length")?;
        let name_len = data.get_u16_le() as usize;
        need(data, name_len + 2 + 16 + 4, "axis body")?;
        let name = String::from_utf8(data.copy_to_bytes(name_len).to_vec())
            .map_err(|_| CprError::Corrupt("non-utf8 parameter name".into()))?;
        let kind = data.get_u8();
        let integer = data.get_u8() != 0;
        let lo = data.get_f64_le();
        let hi = data.get_f64_le();
        let n_cells = data.get_u32_le() as usize;
        // Allocation guard: building an axis allocates O(n_cells), but a
        // valid file must still carry ≥ 8 bytes of factor data per cell
        // of this mode after this point — so a count beyond remaining/8
        // is corrupt, and allocations stay bounded by the input size.
        if n_cells > data.remaining() / 8 {
            return Err(CprError::Corrupt(format!(
                "axis cell count {n_cells} exceeds payload"
            )));
        }
        let spec = match kind {
            0 | 1 => {
                // NaN bounds must land in the Corrupt arm too, hence the
                // explicit partial_cmp rather than `lo >= hi`. Infinite
                // bounds pass that ordering check but poison midpoint
                // arithmetic downstream (±inf − ±inf = NaN in the axis
                // tables), so finiteness is part of the format.
                if !lo.is_finite() || !hi.is_finite() {
                    return Err(CprError::Corrupt(format!("non-finite range {lo}..{hi}")));
                }
                if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
                    return Err(CprError::Corrupt(format!("bad range {lo}..{hi}")));
                }
                let spacing = if kind == 0 {
                    Spacing::Uniform
                } else {
                    Spacing::Logarithmic
                };
                if spacing == Spacing::Logarithmic && lo <= 0.0 {
                    return Err(CprError::Corrupt("log axis with non-positive lo".into()));
                }
                ParamSpec::Numerical {
                    name,
                    lo,
                    hi,
                    spacing,
                    integer,
                }
            }
            2 => {
                if n_cells == 0 {
                    return Err(CprError::Corrupt("categorical with zero choices".into()));
                }
                ParamSpec::Categorical {
                    name,
                    cardinality: n_cells,
                }
            }
            other => return Err(CprError::Corrupt(format!("bad axis kind {other}"))),
        };
        specs.push(spec);
        cells.push(n_cells.max(1));
    }
    Ok((specs, cells))
}

/// v3 observed-row masks: per mode, one `0`/`1` byte per grid row.
fn read_masks(data: &mut &[u8], cells: &[usize]) -> Result<Vec<Vec<bool>>> {
    cells
        .iter()
        .map(|&n| {
            need(data, n, "observed-row mask")?;
            let (bytes, rest) = data.split_at(n);
            *data = rest;
            bytes
                .iter()
                .map(|&b| match b {
                    0 => Ok(false),
                    1 => Ok(true),
                    other => Err(CprError::Corrupt(format!("bad observed-row flag {other}"))),
                })
                .collect()
        })
        .collect()
}

/// Read one factor matrix (`rows` header + `rows * cols` doubles),
/// rejecting non-finite entries.
fn read_factor(data: &mut &[u8], cols: usize) -> Result<Matrix> {
    need(data, 4, "factor rows")?;
    let rows = data.get_u32_le() as usize;
    need(data, rows * cols * 8, "factor data")?;
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = data.get_f64_le();
    }
    if m.has_non_finite() {
        return Err(CprError::Corrupt("non-finite factor entry".into()));
    }
    Ok(m)
}

/// Deserialize a model previously produced by [`to_bytes`] — any format
/// version ever emitted (v1, v2 or v3).
pub fn from_bytes(mut data: &[u8]) -> Result<CprModel> {
    need(&data, 6, "header")?;
    if data.get_u32_le() != MAGIC {
        return Err(CprError::Corrupt("bad magic".into()));
    }
    let version = data.get_u16_le();
    match version {
        1 => from_bytes_v1(data),
        2 => from_bytes_v2(data, false),
        3 => from_bytes_v2(data, true),
        other => Err(CprError::Corrupt(format!("unsupported version {other}"))),
    }
}

/// v1 body: loss tag, log offset, axes, CP rank + factors. The optimizer
/// tag did not exist yet; it is implied from the loss.
fn from_bytes_v1(mut data: &[u8]) -> Result<CprModel> {
    need(&data, 1 + 8 + 2, "v1 header")?;
    let loss = loss_from_tag(data.get_u8())?;
    let log_offset = data.get_f64_le();
    if !log_offset.is_finite() {
        return Err(CprError::Corrupt("non-finite log offset".into()));
    }
    let order = data.get_u16_le() as usize;
    if order == 0 {
        return Err(CprError::Corrupt("zero tensor order".into()));
    }
    let (specs, cells) = read_axes(&mut data, order)?;
    need(&data, 2, "rank")?;
    let rank = data.get_u16_le() as usize;
    if rank == 0 {
        return Err(CprError::Corrupt("zero rank".into()));
    }
    let mut factors = Vec::with_capacity(order);
    for _ in 0..order {
        factors.push(read_factor(&mut data, rank)?);
    }
    let space = ParamSpace::new(specs);
    let cp = CpDecomp::from_factors(factors);
    CprModel::from_parts(space, &cells, cp, loss, log_offset).map_err(as_corrupt)
}

/// v2 body: optimizer tag, loss tag, log offset, axes, decomposition tag +
/// payload. A v3 body (`masks`) adds the observed-row masks after the
/// axes; without them every row decodes as observed.
fn from_bytes_v2(mut data: &[u8], masks: bool) -> Result<CprModel> {
    need(&data, 1 + 1 + 8 + 2, "v2 header")?;
    let optimizer = optimizer_from_tag(data.get_u8())?;
    let loss = loss_from_tag(data.get_u8())?;
    if optimizer.requires_positive() != (loss == Loss::MLogQ2) {
        return Err(CprError::Corrupt(format!(
            "optimizer {} paired with incompatible loss {loss:?}",
            optimizer.name()
        )));
    }
    let log_offset = data.get_f64_le();
    if !log_offset.is_finite() {
        return Err(CprError::Corrupt("non-finite log offset".into()));
    }
    let order = data.get_u16_le() as usize;
    if order == 0 {
        return Err(CprError::Corrupt("zero tensor order".into()));
    }
    let (specs, cells) = read_axes(&mut data, order)?;
    let row_observed = masks.then(|| read_masks(&mut data, &cells)).transpose()?;
    need(&data, 1, "decomposition tag")?;
    let decomp = match data.get_u8() {
        DECOMP_CP => {
            if optimizer.fits_tucker() {
                return Err(CprError::Corrupt(
                    "tucker-als tag on a CP decomposition".into(),
                ));
            }
            need(&data, 2, "rank")?;
            let rank = data.get_u16_le() as usize;
            if rank == 0 {
                return Err(CprError::Corrupt("zero rank".into()));
            }
            let mut factors = Vec::with_capacity(order);
            for _ in 0..order {
                factors.push(read_factor(&mut data, rank)?);
            }
            Decomposition::Cp(CpDecomp::from_factors(factors))
        }
        DECOMP_TUCKER => {
            if !optimizer.fits_tucker() {
                return Err(CprError::Corrupt(format!(
                    "{} tag on a Tucker decomposition",
                    optimizer.name()
                )));
            }
            need(&data, 2 * order, "tucker ranks")?;
            let mut ranks = Vec::with_capacity(order);
            for _ in 0..order {
                let r = data.get_u16_le() as usize;
                if r == 0 {
                    return Err(CprError::Corrupt("zero tucker rank".into()));
                }
                ranks.push(r);
            }
            let mut factors = Vec::with_capacity(order);
            for &r in &ranks {
                factors.push(read_factor(&mut data, r)?);
            }
            // Checked arithmetic: a crafted file can declare up to 65535
            // modes of rank 65535, whose product wraps — every malformed
            // field must land in Corrupt, never a panic or huge alloc.
            let core_len = ranks
                .iter()
                .try_fold(1usize, |a, &r| a.checked_mul(r))
                .and_then(|n| n.checked_mul(8).map(|_| n))
                .ok_or_else(|| CprError::Corrupt("tucker core size overflow".into()))?;
            need(&data, core_len * 8, "tucker core")?;
            let mut core = vec![0.0; core_len];
            for v in core.iter_mut() {
                *v = data.get_f64_le();
                if !v.is_finite() {
                    return Err(CprError::Corrupt("non-finite core entry".into()));
                }
            }
            Decomposition::Tucker(TuckerDecomp::from_parts(
                DenseTensor::from_vec(&ranks, core),
                factors,
            ))
        }
        other => return Err(CprError::Corrupt(format!("bad decomposition tag {other}"))),
    };
    let space = ParamSpace::new(specs);
    match row_observed {
        Some(masks) => {
            CprModel::from_parts_observed(space, &cells, decomp, optimizer, loss, log_offset, masks)
        }
        None => CprModel::from_parts_tagged(space, &cells, decomp, optimizer, loss, log_offset),
    }
    .map_err(as_corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::model::CprBuilder;
    use cpr_grid::ParamSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn training_data() -> (ParamSpace, Dataset) {
        let space = ParamSpace::new(vec![
            ParamSpec::log("m", 32.0, 2048.0),
            ParamSpec::linear("b", 0.0, 10.0),
            ParamSpec::categorical("alg", 2),
        ]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = Dataset::new();
        for _ in 0..800 {
            let m = 32.0 * 64.0_f64.powf(rng.gen::<f64>());
            let b = rng.gen::<f64>() * 10.0;
            let alg = rng.gen_range(0..2usize);
            data.push(
                vec![m, b, alg as f64],
                1e-3 * m.powf(1.3) * (1.0 + 0.05 * b) * [1.0, 2.3][alg],
            );
        }
        (space, data)
    }

    fn trained_model() -> CprModel {
        let (space, data) = training_data();
        CprBuilder::new(space)
            .cells(vec![6, 4, 2])
            .rank(2)
            .fit(&data)
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let model = trained_model();
        let bytes = to_bytes(&model);
        let restored = from_bytes(&bytes).unwrap();
        for probe in [
            vec![100.0, 2.0, 0.0],
            vec![1500.0, 9.0, 1.0],
            vec![32.0, 0.0, 0.0],
            vec![2048.0, 10.0, 1.0],
        ] {
            let a = model.predict(&probe);
            let b = restored.predict(&probe);
            assert!(
                (a - b).abs() < 1e-12 * a.abs().max(1.0),
                "prediction drift at {probe:?}: {a} vs {b}"
            );
        }
        assert_eq!(restored.optimizer(), model.optimizer());
        assert_eq!(restored.loss(), model.loss());
    }

    #[test]
    fn tucker_model_roundtrips() {
        let (space, data) = training_data();
        let model = CprBuilder::new(space)
            .cells(vec![6, 4, 2])
            .rank(2)
            .tucker_ranks(vec![2, 2, 2])
            .optimizer(Optimizer::TuckerAls)
            .fit(&data)
            .unwrap();
        let bytes = to_bytes(&model);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.optimizer(), Optimizer::TuckerAls);
        assert!(restored.decomposition().as_tucker().is_some());
        for probe in [vec![100.0, 2.0, 0.0], vec![1500.0, 9.0, 1.0]] {
            assert_eq!(
                model.predict(&probe).to_bits(),
                restored.predict(&probe).to_bits(),
                "tucker roundtrip drift at {probe:?}"
            );
        }
    }

    #[test]
    fn size_matches_reported_bytes_approximately() {
        let model = trained_model();
        let bytes = to_bytes(&model);
        // Serialized form should be within 2x of the analytic size estimate.
        let est = model.size_bytes();
        assert!(
            bytes.len() < est * 2 + 512,
            "serialized {} vs estimate {est}",
            bytes.len()
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let err = from_bytes(&[0u8; 16]).unwrap_err();
        assert!(matches!(err, CprError::Corrupt(_)));
    }

    #[test]
    fn rejects_truncation() {
        let model = trained_model();
        let bytes = to_bytes(&model);
        for cut in [3usize, 10, bytes.len() / 2, bytes.len() - 3] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} silently accepted"
            );
        }
    }

    #[test]
    fn rejects_corrupted_floats() {
        let model = trained_model();
        let mut raw = to_bytes(&model).to_vec();
        // Stomp the final factor float with NaN bits.
        let n = raw.len();
        raw[n - 8..n].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(from_bytes(&raw).is_err());
    }

    #[test]
    fn optimizer_wire_tags_frozen() {
        // These byte values are in persisted files; they may never move.
        let frozen = [
            (Optimizer::Als, 0u8),
            (Optimizer::Amn, 1),
            (Optimizer::Ccd, 2),
            (Optimizer::Sgd, 3),
            (Optimizer::TuckerAls, 4),
        ];
        assert_eq!(
            frozen.len(),
            Optimizer::ALL.len(),
            "new variant: assign a new tag"
        );
        for (opt, tag) in frozen {
            assert_eq!(optimizer_tag(opt), tag, "{} tag moved", opt.name());
            assert_eq!(optimizer_from_tag(tag).unwrap(), opt);
        }
    }

    #[test]
    fn rejects_incompatible_tag_pairs() {
        let model = trained_model();
        let mut raw = to_bytes(&model).to_vec();
        // Byte 6 is the optimizer tag: claim AMN on a LogLeastSquares
        // model — the reader must refuse the pair.
        raw[6] = 1;
        assert!(matches!(from_bytes(&raw), Err(CprError::Corrupt(_))));
        // Out-of-range optimizer tag.
        let mut raw = to_bytes(&model).to_vec();
        raw[6] = 99;
        assert!(matches!(from_bytes(&raw), Err(CprError::Corrupt(_))));
    }
}
