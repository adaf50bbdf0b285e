//! The Deep Sketch itself: "essentially a wrapper for a (serialized) neural
//! network and a set of materialized samples". It consumes a SQL query and
//! returns a cardinality estimate (Figure 1b), fits in a few MiB, and
//! answers within milliseconds.

use std::cell::RefCell;

use ds_est::{CardinalityEstimator, EstimateError};
use ds_nn::frozen::{FrozenModel, FrozenScratch, QuantMode};
use ds_nn::loss::LabelNormalizer;
use ds_nn::pool::PoolConfig;
use ds_nn::serialize::{DecodeError, Decoder, Encoder};
use ds_obs::HistogramSnapshot;
use ds_query::query::Query;
use ds_storage::bitmap::Bitmap;
use ds_storage::catalog::{ColRef, TableId};
use ds_storage::column::Column;
use ds_storage::exec::JoinEdge;
use ds_storage::sample::TableSample;
use ds_storage::table::Table;

use crate::featurize::{FeatureSchema, Featurizer, QueryIndexFeatures};
use crate::mscn::{ForwardCache, MscnModel};

const MAGIC: &[u8; 4] = b"DSKT";
/// Current serialization version. Version 2 appended the optional
/// training-time q-error baseline; version 3 appended the optional frozen
/// inference artifact (with its quantization mode); version 4 inserted
/// the feature-schema generation and per-predicate bitmap width after
/// the `use_bitmaps` flag. Older blobs still load: v1 gets no baseline,
/// v1 and v2 get a fresh f32 freeze on decode, and everything before v4
/// decodes as feature schema v1 — the byte-identical paper encoding — so
/// pre-existing snapshots keep answering exactly as they always did.
const VERSION: u32 = 4;
/// Oldest version [`DeepSketch::from_bytes`] accepts.
const MIN_VERSION: u32 = 1;

/// Queries per serving batch. Bounds the flattened set matrices (keeping
/// them cache-resident). Chunking never changes results: every query's
/// rows flow through row-independent kernels and its own pooling
/// segments.
const SERVE_CHUNK: usize = 256;

/// Accuracy gate for freezing (see [`DeepSketch::freeze_gated`]): the worst
/// per-probe q-style ratio `max(frozen/reference, reference/frozen)` must
/// stay at or below this for the artifact to be adopted. The f32 mode is
/// bit-identical to the reference kernels, so its delta is exactly 1.0;
/// this bound is what actually guards int8 quantization.
pub const FREEZE_GATE_MAX_DELTA: f64 = 1.05;

thread_local! {
    /// Per-thread scratch of the fused featurize-and-forward path: index
    /// lists plus layer activations. Keeps single-query serving
    /// allocation-free after the first estimate on each thread.
    static FUSED_SCRATCH: RefCell<(QueryIndexFeatures, FrozenScratch)> =
        RefCell::new((QueryIndexFeatures::default(), FrozenScratch::new()));
}

/// Summary card of a trained sketch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchInfo {
    /// Source database name.
    pub database: String,
    /// Tables in the featurization vocabulary.
    pub tables: usize,
    /// Joins in the vocabulary.
    pub joins: usize,
    /// Predicate columns in the vocabulary.
    pub predicate_columns: usize,
    /// MSCN hidden width.
    pub hidden_units: usize,
    /// Scalar model parameters.
    pub model_params: usize,
    /// Nominal sample size per table.
    pub sample_size: usize,
    /// Total materialized sample rows across tables.
    pub sample_rows: usize,
    /// Serialized size in bytes.
    pub footprint_bytes: usize,
    /// Largest cardinality representable by the label normalizer.
    pub max_label: u64,
}

impl std::fmt::Display for SketchInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sketch[{}]: {} tables, {} joins, {} pred-cols; hidden {}, {} params; \
             {} sample rows ({}/table); {:.2} MiB; max label {}",
            self.database,
            self.tables,
            self.joins,
            self.predicate_columns,
            self.hidden_units,
            self.model_params,
            self.sample_rows,
            self.sample_size,
            self.footprint_bytes as f64 / (1024.0 * 1024.0),
            self.max_label
        )
    }
}

/// A trained Deep Sketch: MSCN model + featurization vocabulary +
/// materialized base-table samples + label normalizer. Self-contained: a
/// deserialized sketch estimates without access to the original database.
#[derive(Debug, Clone)]
pub struct DeepSketch {
    model: MscnModel,
    featurizer: Featurizer,
    samples: Vec<TableSample>,
    normalizer: LabelNormalizer,
    database_name: String,
    name: String,
    /// Training-time holdout q-error distribution (scaled ×1000 into log₂
    /// buckets) — the accuracy the shipped weights actually achieved, and
    /// the reference the online drift monitor compares rolling feedback
    /// against. `None` for sketches built before the monitor existed
    /// (version-1 blobs) or trained without a validation split.
    baseline: Option<HistogramSnapshot>,
    /// The serving-only frozen artifact: gather-friendly f32 (or int8)
    /// weights converted once from the trained model. `None` when freezing
    /// was skipped or failed its accuracy gate — estimates then run the
    /// reference batch path.
    frozen: Option<FrozenModel>,
}

impl DeepSketch {
    /// Assembles a sketch from trained parts (used by
    /// [`crate::builder::SketchBuilder`]).
    pub fn from_parts(
        model: MscnModel,
        featurizer: Featurizer,
        samples: Vec<TableSample>,
        normalizer: LabelNormalizer,
        database_name: impl Into<String>,
    ) -> Self {
        let database_name = database_name.into();
        let name = format!("Deep Sketch ({database_name})");
        Self {
            model,
            featurizer,
            samples,
            normalizer,
            database_name,
            name,
            baseline: None,
            frozen: None,
        }
    }

    /// Attaches the training-time q-error baseline (scaled ×1000, see
    /// [`crate::monitor::QERR_SCALE`]). Serialized with the sketch.
    pub fn set_baseline(&mut self, baseline: HistogramSnapshot) {
        self.baseline = Some(baseline);
    }

    /// The training-time q-error baseline, if the sketch carries one.
    pub fn baseline(&self) -> Option<&HistogramSnapshot> {
        self.baseline.as_ref()
    }

    /// The frozen inference artifact, if one is attached.
    pub fn frozen(&self) -> Option<&FrozenModel> {
        self.frozen.as_ref()
    }

    /// Discards the frozen artifact: estimates fall back to the reference
    /// batch path (and serialization drops the frozen section).
    pub fn clear_frozen(&mut self) {
        self.frozen = None;
    }

    /// Freezes the trained model into the serving artifact without an
    /// accuracy check. For f32 this is always safe (the fused path is
    /// bit-identical to the reference kernels); int8 callers should prefer
    /// [`DeepSketch::freeze_gated`].
    pub fn freeze(&mut self, mode: QuantMode) {
        self.frozen = Some(self.model.freeze(mode));
    }

    /// Freezes with an accuracy gate: estimates every probe query through
    /// both the reference path and the candidate artifact and adopts the
    /// artifact only if the worst q-style ratio `max(f/r, r/f)` stays at
    /// or below `max_delta` (see [`FREEZE_GATE_MAX_DELTA`]). Returns the
    /// observed worst ratio either way: `Ok` when the artifact was
    /// adopted, `Err` when it failed the gate and the previous frozen
    /// state was kept.
    pub fn freeze_gated(
        &mut self,
        mode: QuantMode,
        probes: &[Query],
        max_delta: f64,
    ) -> Result<f64, f64> {
        let prior = self.frozen.take();
        let reference = self.estimate_batch(probes);
        let candidate = self.model.freeze(mode);
        let mut feats = QueryIndexFeatures::default();
        let mut scratch = FrozenScratch::new();
        let mut worst = 1.0f64;
        for (q, &r) in probes.iter().zip(&reference) {
            self.featurizer
                .featurize_indices(q, &self.samples, &mut feats);
            let y =
                candidate.forward_query(&feats.tables, &feats.joins, &feats.preds, &mut scratch);
            let f = self.normalizer.denormalize(y).max(1.0);
            worst = worst.max((f / r).max(r / f));
        }
        if worst <= max_delta {
            self.frozen = Some(candidate);
            Ok(worst)
        } else {
            self.frozen = prior;
            Err(worst)
        }
    }

    /// Shape agreement between the frozen artifact and the reference
    /// model: `None` when consistent (or when no artifact is attached),
    /// otherwise a description of the first mismatch. Checked by
    /// [`DeepSketch::validate`] on every request and by
    /// [`DeepSketch::from_bytes`] on decode.
    pub fn frozen_shape_mismatch(&self) -> Option<String> {
        let frozen = self.frozen.as_ref()?;
        let h = self.model.hidden();
        if frozen.hidden() != h {
            return Some(format!(
                "frozen hidden width {} disagrees with reference {h}",
                frozen.hidden()
            ));
        }
        let (td, jd, pd) = self.model.input_dims();
        let expect = [
            ("tables1", td, h),
            ("tables2", h, h),
            ("joins1", jd, h),
            ("joins2", h, h),
            ("preds1", pd, h),
            ("preds2", h, h),
            ("out1", 3 * h, h),
            ("out2", h, 1),
        ];
        for (l, &(name, in_d, out_d)) in frozen.layers().iter().zip(expect.iter()) {
            if l.in_dim() != in_d || l.out_dim() != out_d {
                return Some(format!(
                    "frozen layer {name} is {}x{}, reference expects {in_d}x{out_d}",
                    l.in_dim(),
                    l.out_dim()
                ));
            }
        }
        None
    }

    /// One estimate through the fused featurize-and-forward path: sparse
    /// index lists gathered straight into the frozen weight rows, no
    /// feature tensor ever materialized.
    fn estimate_fused(&self, frozen: &FrozenModel, query: &Query) -> f64 {
        FUSED_SCRATCH.with(|cell| {
            let (feats, scratch) = &mut *cell.borrow_mut();
            self.featurizer
                .featurize_indices(query, &self.samples, feats);
            let y = frozen.forward_query(&feats.tables, &feats.joins, &feats.preds, scratch);
            self.normalizer.denormalize(y).max(1.0)
        })
    }

    /// Estimated cardinality of one query (≥ 1). Served through the fused
    /// frozen path when an artifact is attached (bit-identical for f32,
    /// gate-bounded for int8); the reference batch path otherwise.
    pub fn estimate_one(&self, query: &Query) -> f64 {
        if let Some(frozen) = &self.frozen {
            return self.estimate_fused(frozen, query);
        }
        self.estimate_batch(std::slice::from_ref(query))[0]
    }

    /// Estimates a batch of queries: featurizes and forwards
    /// `SERVE_CHUNK`-query chunks on the calling thread. Returns exactly
    /// what a loop of [`DeepSketch::estimate_one`] calls would.
    pub fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        if queries.is_empty() {
            return Vec::new();
        }
        // Int8 artifacts are not bit-identical to the reference kernels,
        // so the batch contract ("exactly the looped estimate_one
        // results") forces the fused path here too. F32 artifacts *are*
        // bit-identical (see `ds_nn::frozen`), so the chunked reference
        // path below remains the batched fast path.
        if let Some(frozen) = &self.frozen {
            if frozen.mode() == QuantMode::Int8 {
                return queries
                    .iter()
                    .map(|q| self.estimate_fused(frozen, q))
                    .collect();
            }
        }
        let mut out = vec![0.0f64; queries.len()];
        let mut cache = ForwardCache::new();
        for (qs, os) in queries.chunks(SERVE_CHUNK).zip(out.chunks_mut(SERVE_CHUNK)) {
            self.estimate_chunk(qs, os, &mut cache);
        }
        out
    }

    /// Featurizes and forwards one chunk into its output slice. Serving
    /// never fans out: one query's forward is a few small matrices, and
    /// the server already runs one batch per worker thread.
    fn estimate_chunk(&self, queries: &[Query], out: &mut [f64], cache: &mut ForwardCache) {
        let batch = self.featurizer.batch_queries(queries, &self.samples);
        self.model.forward_into(&batch, PoolConfig::single(), cache);
        for (o, &y) in out.iter_mut().zip(cache.output().data()) {
            *o = self.normalizer.denormalize(y).max(1.0);
        }
    }

    /// Checks that every table and predicate column the query references
    /// exists in this sketch's vocabulary and shipped samples — the
    /// precondition for [`DeepSketch::estimate_batch`] to be panic-free.
    /// Queries parsed against the database the sketch was trained over
    /// always pass; queries from a different (larger) schema may not.
    pub fn validate(&self, query: &Query) -> Result<(), EstimateError> {
        // A frozen artifact whose shapes disagree with the reference
        // weights would gather out of bounds — refuse to serve rather
        // than panic. Cheap: eight integer comparisons.
        if let Some(msg) = self.frozen_shape_mismatch() {
            return Err(EstimateError::Unavailable(msg));
        }
        let known = self.samples.len();
        let check_table = |t: usize| {
            if t >= known {
                Err(EstimateError::UnknownTable {
                    table: t,
                    known_tables: known,
                })
            } else {
                Ok(())
            }
        };
        for &t in &query.tables {
            check_table(t.0)?;
        }
        for j in &query.joins {
            check_table(j.left.table.0)?;
            check_table(j.right.table.0)?;
        }
        for (t, p) in &query.predicates {
            check_table(t.0)?;
            let cols = self.samples[t.0].rows().columns().len();
            if p.col >= cols {
                return Err(EstimateError::UnknownColumn {
                    table: t.0,
                    col: p.col,
                });
            }
        }
        Ok(())
    }

    /// The materialized samples shipped with the sketch.
    pub fn samples(&self) -> &[TableSample] {
        &self.samples
    }

    /// The featurization vocabulary.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// The underlying model.
    pub fn model(&self) -> &MscnModel {
        &self.model
    }

    /// The label normalizer.
    pub fn normalizer(&self) -> &LabelNormalizer {
        &self.normalizer
    }

    /// Name of the database the sketch was trained over.
    pub fn database_name(&self) -> &str {
        &self.database_name
    }

    /// Serialized size in bytes — the paper advertises "a few MiBs".
    pub fn footprint_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// A human-readable summary of the sketch (the demo's sketch card).
    pub fn info(&self) -> SketchInfo {
        let sample_rows = self.samples.iter().map(TableSample::len).sum();
        SketchInfo {
            database: self.database_name.clone(),
            tables: self.featurizer.num_tables(),
            joins: self.featurizer.joins().len(),
            predicate_columns: self.featurizer.columns().len(),
            hidden_units: self.model.hidden(),
            model_params: self.model.num_params(),
            sample_size: self.featurizer.sample_size(),
            sample_rows,
            footprint_bytes: self.footprint_bytes(),
            max_label: self.normalizer.bounds().1.exp().round() as u64,
        }
    }

    /// Serializes the sketch to a self-contained byte blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.header(MAGIC, VERSION);
        e.string(&self.database_name);
        let (lo, hi) = self.normalizer.bounds();
        e.f64(lo);
        e.f64(hi);

        // Featurizer.
        e.u64(self.featurizer.num_tables() as u64);
        e.u64(self.featurizer.sample_size() as u64);
        e.u64(self.featurizer.use_bitmaps() as u64);
        // Feature schema (v4+): generation tag + per-predicate bitmap bits.
        e.u64(self.featurizer.schema().tag() as u64);
        e.u64(self.featurizer.pred_bitmap_bits() as u64);
        e.u64(self.featurizer.joins().len() as u64);
        for j in self.featurizer.joins() {
            e.u64(j.left.table.0 as u64);
            e.u64(j.left.col as u64);
            e.u64(j.right.table.0 as u64);
            e.u64(j.right.col as u64);
        }
        e.u64(self.featurizer.columns().len() as u64);
        for (c, &(lo, hi)) in self
            .featurizer
            .columns()
            .iter()
            .zip(self.featurizer.col_bounds())
        {
            e.u64(c.table.0 as u64);
            e.u64(c.col as u64);
            e.f64(lo);
            e.f64(hi);
        }

        // Samples.
        e.u64(self.samples.len() as u64);
        for s in &self.samples {
            e.u64(s.table_id().0 as u64);
            e.u64(s.nominal_size() as u64);
            e.u64_slice(&s.row_ids().iter().map(|&r| r as u64).collect::<Vec<_>>());
            let t = s.rows();
            e.string(t.name());
            e.u64(t.columns().len() as u64);
            for col in t.columns() {
                e.string(col.name());
                e.i64_slice(col.data());
                match col.null_mask() {
                    Some(bm) => {
                        e.u64(bm.len() as u64);
                        e.u64_slice(bm.words());
                    }
                    None => {
                        e.u64(0);
                        e.u64_slice(&[]);
                    }
                }
            }
        }

        // Model.
        self.model.encode(&mut e);

        // Accuracy baseline (v2+): optional flag + histogram words.
        match &self.baseline {
            Some(b) => {
                e.u64(1);
                e.u64_slice(&b.to_words());
            }
            None => e.u64(0),
        }

        // Frozen inference artifact (v3+): optional flag + payload, with
        // the quantization mode recorded inside the payload.
        match &self.frozen {
            Some(f) => {
                e.u64(1);
                f.encode_into(&mut e);
            }
            None => e.u64(0),
        }
        e.finish()
    }

    /// Deserializes a sketch written by [`DeepSketch::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let version = d.header(MAGIC)?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(DecodeError::BadHeader(format!(
                "unsupported sketch version {version}"
            )));
        }
        let database_name = d.string()?;
        let lo = d.f64()?;
        let hi = d.f64()?;
        if hi <= lo {
            return Err(DecodeError::Corrupt("bad normalizer bounds".into()));
        }
        let normalizer = LabelNormalizer::from_bounds(lo, hi);

        // Featurizer.
        let num_tables = d.u64()? as usize;
        let sample_size = d.u64()? as usize;
        let use_bitmaps = d.u64()? != 0;
        // Feature schema: everything before v4 is the paper's encoding.
        let (schema, pred_bitmap_bits) = if version >= 4 {
            let tag = d.u64()?;
            let schema = u8::try_from(tag)
                .ok()
                .and_then(FeatureSchema::from_tag)
                .ok_or_else(|| DecodeError::Corrupt(format!("unknown feature schema tag {tag}")))?;
            let bits = d.u64()? as usize;
            if schema == FeatureSchema::V1 && bits != 0 {
                return Err(DecodeError::Corrupt(
                    "schema v1 with per-predicate bitmap bits".into(),
                ));
            }
            if bits > sample_size {
                return Err(DecodeError::Corrupt(
                    "per-predicate bitmap wider than sample".into(),
                ));
            }
            (schema, bits)
        } else {
            (FeatureSchema::V1, 0)
        };
        // Record counts are validated against the remaining input (a join
        // is 4 u64s, a column entry 2 u64s + 2 f64s, …) so a corrupt
        // length prefix fails typed instead of panicking in
        // `Vec::with_capacity` — found by the snapshot fuzz smoke.
        let n_joins = d.count(32)?;
        let mut joins = Vec::with_capacity(n_joins);
        for _ in 0..n_joins {
            let lt = d.u64()? as usize;
            let lc = d.u64()? as usize;
            let rt = d.u64()? as usize;
            let rc = d.u64()? as usize;
            joins.push(JoinEdge::new(
                ColRef::new(TableId(lt), lc),
                ColRef::new(TableId(rt), rc),
            ));
        }
        let n_cols = d.count(32)?;
        let mut columns = Vec::with_capacity(n_cols);
        let mut bounds = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let t = d.u64()? as usize;
            let c = d.u64()? as usize;
            columns.push(ColRef::new(TableId(t), c));
            bounds.push((d.f64()?, d.f64()?));
        }
        let featurizer = Featurizer::from_parts(
            num_tables,
            sample_size,
            use_bitmaps,
            joins,
            columns,
            bounds,
            schema,
            pred_bitmap_bits,
        );

        // Samples.
        let n_samples = d.count(40)?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let table_id = TableId(d.u64()? as usize);
            let nominal = d.u64()? as usize;
            let row_ids: Vec<u32> = d
                .u64_vec()?
                .into_iter()
                .map(|r| {
                    u32::try_from(r).map_err(|_| DecodeError::Corrupt("row id overflow".into()))
                })
                .collect::<Result<_, _>>()?;
            let tname = d.string()?;
            let n_tcols = d.count(32)?;
            let mut cols = Vec::with_capacity(n_tcols);
            for _ in 0..n_tcols {
                let cname = d.string()?;
                let data = d.i64_vec()?;
                let bm_len = d.u64()? as usize;
                let words = d.u64_vec()?;
                if bm_len == 0 {
                    cols.push(Column::new(cname, data));
                } else {
                    if words.len() != bm_len.div_ceil(64) || data.len() != bm_len {
                        return Err(DecodeError::Corrupt("null mask mismatch".into()));
                    }
                    cols.push(Column::with_nulls(
                        cname,
                        data,
                        Bitmap::from_words(words, bm_len),
                    ));
                }
            }
            if cols.iter().any(|c| c.len() != row_ids.len()) {
                return Err(DecodeError::Corrupt("sample column length mismatch".into()));
            }
            if nominal < row_ids.len() {
                return Err(DecodeError::Corrupt("nominal sample size too small".into()));
            }
            let table = Table::new(tname, cols);
            samples.push(TableSample::from_parts(table_id, row_ids, table, nominal));
        }

        // Model.
        let model = MscnModel::decode(&mut d)?;

        // Accuracy baseline: absent before version 2.
        let baseline = if version >= 2 && d.u64()? != 0 {
            let words = d.u64_vec()?;
            Some(
                HistogramSnapshot::from_words(&words)
                    .ok_or_else(|| DecodeError::Corrupt("bad baseline histogram".into()))?,
            )
        } else {
            None
        };

        // Frozen artifact: v3 records the builder's freeze decision
        // (including "gate failed, none attached"). Older blobs pre-date
        // the artifact and get a fresh f32 freeze below — bit-identical
        // to their reference weights, so snapshots taken before this
        // version serve through the fused path with unchanged results.
        let (frozen, refreeze) = if version >= 3 {
            if d.u64()? != 0 {
                (Some(FrozenModel::decode_from(&mut d)?), false)
            } else {
                (None, false)
            }
        } else {
            (None, true)
        };

        let mut sketch = Self::from_parts(model, featurizer, samples, normalizer, database_name);
        sketch.baseline = baseline;
        sketch.frozen = if refreeze {
            Some(sketch.model.freeze(QuantMode::F32))
        } else {
            frozen
        };
        // Mismatched quantization metadata (artifact shapes that disagree
        // with the reference weights) is corruption, not a servable state.
        if let Some(msg) = sketch.frozen_shape_mismatch() {
            return Err(DecodeError::Corrupt(msg));
        }
        Ok(sketch)
    }
}

impl CardinalityEstimator for DeepSketch {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&self, query: &Query) -> f64 {
        self.estimate_one(query)
    }

    /// Validated estimation: malformed requests (tables or columns outside
    /// the sketch's vocabulary) become typed errors instead of panics.
    fn try_estimate(&self, query: &Query) -> Result<f64, EstimateError> {
        self.validate(query)?;
        Ok(self.estimate_one(query))
    }

    /// The chunked, optionally threaded batch fast path (bit-identical to
    /// the looped single-query estimates).
    fn estimate_batch(&self, queries: &[Query]) -> Vec<f64> {
        DeepSketch::estimate_batch(self, queries)
    }

    /// Batch path with per-query validation: invalid queries get their
    /// error, the valid subset still runs through one coalesced forward
    /// pass (results bit-identical to [`DeepSketch::estimate_one`]).
    fn try_estimate_batch(&self, queries: &[Query]) -> Vec<Result<f64, EstimateError>> {
        let mut out: Vec<Result<f64, EstimateError>> = queries
            .iter()
            .map(|q| self.validate(q).map(|()| 0.0))
            .collect();
        let valid: Vec<Query> = queries
            .iter()
            .zip(&out)
            .filter(|(_, r)| r.is_ok())
            .map(|(q, _)| q.clone())
            .collect();
        let estimates = DeepSketch::estimate_batch(self, &valid);
        let mut it = estimates.into_iter();
        for v in out.iter_mut().flatten() {
            *v = it.next().expect("one estimate per valid query");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SketchBuilder;
    use ds_query::parser::parse_query;
    use ds_query::workloads::imdb_predicate_columns;
    use ds_storage::gen::{imdb_database, ImdbConfig};

    fn tiny_sketch() -> (ds_storage::catalog::Database, DeepSketch) {
        let db = imdb_database(&ImdbConfig::tiny(1));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(200)
            .epochs(4)
            .sample_size(16)
            .hidden_units(16)
            .seed(3)
            .build()
            .expect("build sketch");
        (db, sketch)
    }

    #[test]
    fn estimates_are_positive_and_bounded() {
        let (db, sketch) = tiny_sketch();
        let q = parse_query(
            &db,
            "SELECT COUNT(*) FROM title, movie_keyword \
             WHERE movie_keyword.movie_id = title.id AND title.production_year > 2000",
        )
        .unwrap();
        let e = sketch.estimate(&q);
        assert!(e >= 1.0);
        // Bounded by the normalizer's max label.
        let (_, hi) = sketch.normalizer().bounds();
        assert!(e <= hi.exp() * 1.01);
    }

    #[test]
    fn serialization_roundtrip_preserves_estimates() {
        let (db, sketch) = tiny_sketch();
        let bytes = sketch.to_bytes();
        assert_eq!(bytes.len(), sketch.footprint_bytes());
        let restored = DeepSketch::from_bytes(&bytes).unwrap();
        let queries = ds_query::workloads::job_light::job_light_workload(&db, 2);
        let before = sketch.estimate_batch(&queries);
        let after = restored.estimate_batch(&queries);
        assert_eq!(before, after);
        assert_eq!(restored.database_name(), "imdb");
    }

    #[test]
    fn baseline_survives_serialization_and_v1_blobs_still_load() {
        let (_db, mut sketch) = tiny_sketch();
        assert!(
            sketch.baseline().is_some(),
            "builder must attach the holdout baseline"
        );

        // Attach a known baseline and roundtrip it.
        let h = ds_obs::LogHistogram::new();
        for q in [1000u64, 1200, 1500, 3000, 9000] {
            h.record(q);
        }
        sketch.set_baseline(h.snapshot());
        let restored = DeepSketch::from_bytes(&sketch.to_bytes()).unwrap();
        assert_eq!(restored.baseline(), Some(&h.snapshot()));

        // Pre-v4 layouts lack the 16 schema bytes v4 writes after the
        // `use_bitmaps` flag; splice them out to reconstruct the old
        // stream (the sketch under test is schema v1, so the spliced
        // bytes carry no information).
        let strip_schema_words = |bytes: &mut Vec<u8>, name_len: usize| {
            let off = 8 + (8 + name_len) + 16 + 24;
            bytes.drain(off..off + 16);
        };

        // A version-1 blob is the v3 layout minus the trailing baseline
        // and frozen flag words, with version 1 in the header: it must
        // still load, with no baseline and a fresh f32 re-freeze whose
        // fused estimates are bit-identical to the reference path.
        let mut plain = sketch.clone();
        plain.baseline = None;
        plain.clear_frozen();
        let name_len = plain.database_name().len();
        let mut v1 = plain.to_bytes();
        strip_schema_words(&mut v1, name_len);
        v1.truncate(v1.len() - 16);
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let legacy = DeepSketch::from_bytes(&v1).expect("v1 blob must load");
        assert!(legacy.baseline().is_none());
        assert!(legacy.frozen().is_some(), "legacy blobs re-freeze f32");
        assert_eq!(
            legacy.estimate_one(&parse_query(&_db, "SELECT COUNT(*) FROM title").unwrap()),
            plain.estimate_one(&parse_query(&_db, "SELECT COUNT(*) FROM title").unwrap())
        );

        // A version-2 blob (no frozen section) loads the same way.
        let mut v2 = plain.to_bytes();
        strip_schema_words(&mut v2, name_len);
        v2.truncate(v2.len() - 8);
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let legacy2 = DeepSketch::from_bytes(&v2).expect("v2 blob must load");
        assert!(legacy2.frozen().is_some(), "v2 blobs re-freeze f32");

        // A version-3 blob (pre-schema) decodes as feature schema v1 and
        // estimates byte-identically to its v4 re-encoding.
        let mut v3 = sketch.to_bytes();
        strip_schema_words(&mut v3, name_len);
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        let legacy3 = DeepSketch::from_bytes(&v3).expect("v3 blob must load");
        assert_eq!(
            legacy3.featurizer().schema(),
            crate::featurize::FeatureSchema::V1
        );
        assert_eq!(legacy3.to_bytes(), sketch.to_bytes());

        // A corrupt baseline payload is rejected, not silently zeroed.
        let mut no_frozen = sketch.clone();
        no_frozen.clear_frozen();
        let mut bad = no_frozen.to_bytes();
        let n = bad.len();
        bad[n - 17] ^= 0xFF; // inside the last bucket word, before the frozen flag
        assert!(matches!(
            DeepSketch::from_bytes(&bad),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn batch_matches_single_estimates() {
        let (db, sketch) = tiny_sketch();
        let queries = ds_query::workloads::job_light::job_light_workload(&db, 4);
        let batch = sketch.estimate_batch(&queries[..5]);
        for (q, &b) in queries[..5].iter().zip(&batch) {
            let single = sketch.estimate_one(q);
            assert!((single - b).abs() < 1e-6 * single.max(1.0));
        }
        assert!(sketch.estimate_batch(&[]).is_empty());
    }

    #[test]
    fn estimates_are_invariant_under_set_permutation() {
        // Tables, joins and predicates are sets: listing them in another
        // order must not change a single bit of the estimate, on the fused
        // path (`estimate_one`) or the reference path (`estimate_batch`).
        let db = imdb_database(&ImdbConfig::tiny(42));
        let sketch = SketchBuilder::new(&db, imdb_predicate_columns(&db))
            .training_queries(120)
            .epochs(2)
            .sample_size(8)
            .hidden_units(8)
            .seed(7)
            .build()
            .expect("build sketch");
        for seed in 0..5 {
            let queries = ds_query::workloads::job_light::job_light_workload(&db, seed);
            let permuted: Vec<Query> = queries
                .iter()
                .map(|q| {
                    let mut p = q.clone();
                    p.tables.reverse();
                    p.joins.reverse();
                    p.predicates.reverse();
                    p
                })
                .collect();
            let reference = sketch.estimate_batch(&queries);
            assert_eq!(sketch.estimate_batch(&permuted), reference, "seed {seed}");
            for ((q, p), r) in queries.iter().zip(&permuted).zip(&reference) {
                assert_eq!(sketch.estimate_one(q).to_bits(), r.to_bits());
                assert_eq!(
                    sketch.estimate_one(p).to_bits(),
                    r.to_bits(),
                    "seed {seed}: {q:?}"
                );
            }
        }
    }

    #[test]
    fn estimate_batch_is_exactly_the_looped_estimates() {
        // The chunked batch path must return *exactly*
        // `queries.iter().map(|q| estimate_one(q))` — chunking may never
        // change a single bit.
        let (db, sketch) = tiny_sketch();
        let mut queries = ds_query::workloads::job_light::job_light_workload(&db, 4);
        // Single-table query: empty join set (and no predicates).
        queries.push(parse_query(&db, "SELECT COUNT(*) FROM title").unwrap());
        // Join without predicates: empty predicate set.
        queries.push(
            parse_query(
                &db,
                "SELECT COUNT(*) FROM title, movie_keyword \
                 WHERE movie_keyword.movie_id = title.id",
            )
            .unwrap(),
        );
        // Single table with a predicate: empty join set, non-empty preds.
        queries.push(
            parse_query(
                &db,
                "SELECT COUNT(*) FROM title WHERE title.production_year > 1990",
            )
            .unwrap(),
        );
        assert!(queries.iter().any(|q| q.joins.is_empty()));
        assert!(queries.iter().any(|q| q.predicates.is_empty()));
        // Cycle past SERVE_CHUNK so multiple chunks are exercised.
        let many: Vec<_> = queries
            .iter()
            .cycle()
            .take(3 * SERVE_CHUNK + 7)
            .cloned()
            .collect();
        let looped: Vec<f64> = many.iter().map(|q| sketch.estimate_one(q)).collect();
        assert_eq!(sketch.estimate_batch(&many), looped);
    }

    #[test]
    fn try_estimate_rejects_out_of_vocabulary_queries() {
        use ds_est::EstimateError;
        use ds_storage::predicate::{CmpOp, ColPredicate};

        let (db, sketch) = tiny_sketch();
        let good = parse_query(&db, "SELECT COUNT(*) FROM title WHERE title.kind_id = 1").unwrap();
        assert_eq!(sketch.try_estimate(&good), Ok(sketch.estimate_one(&good)));

        // A query naming a table id beyond the sketch's vocabulary — as a
        // sketch deserialized next to a *larger* schema would see — errors
        // instead of panicking.
        let mut alien = good.clone();
        alien.tables.push(ds_storage::catalog::TableId(99));
        assert!(matches!(
            sketch.try_estimate(&alien),
            Err(EstimateError::UnknownTable { table: 99, .. })
        ));

        // Same for a predicate on a column the sampled table doesn't have.
        let mut bad_col = good.clone();
        bad_col
            .predicates
            .push((bad_col.tables[0], ColPredicate::new(999, CmpOp::Eq, 1)));
        assert!(matches!(
            sketch.try_estimate(&bad_col),
            Err(EstimateError::UnknownColumn { col: 999, .. })
        ));

        // The batch path isolates failures per query and keeps valid
        // results bit-identical to the singles.
        let results =
            sketch.try_estimate_batch(&[good.clone(), alien.clone(), bad_col, good.clone()]);
        assert_eq!(results[0], Ok(sketch.estimate_one(&good)));
        assert!(results[1].is_err() && results[2].is_err());
        assert_eq!(results[3], Ok(sketch.estimate_one(&good)));
    }

    #[test]
    fn freeze_gated_adopts_f32_exactly_and_keeps_prior_on_failure() {
        let (db, mut sketch) = tiny_sketch();
        let probes = ds_query::workloads::job_light::job_light_workload(&db, 2);
        sketch.clear_frozen();
        // F32 is bit-identical to the reference path, so the observed
        // worst ratio is exactly 1.0 and the gate always passes.
        let delta = sketch
            .freeze_gated(QuantMode::F32, &probes, FREEZE_GATE_MAX_DELTA)
            .expect("f32 freeze must pass the gate");
        assert_eq!(delta, 1.0);
        assert!(sketch.frozen().is_some());
        assert_eq!(sketch.frozen().unwrap().mode(), QuantMode::F32);

        // An unsatisfiable gate (worst ratio is always ≥ 1.0) rejects the
        // candidate and leaves the prior artifact untouched.
        let prior = sketch.frozen().cloned();
        let worst = sketch
            .freeze_gated(QuantMode::Int8, &probes, 0.5)
            .expect_err("no artifact can beat a 0.5 gate");
        assert!(worst >= 1.0);
        assert_eq!(sketch.frozen(), prior.as_ref());
    }

    #[test]
    fn int8_freeze_tracks_reference_estimates() {
        let (db, mut sketch) = tiny_sketch();
        let probes = ds_query::workloads::job_light::job_light_workload(&db, 2);
        sketch.clear_frozen();
        let reference = sketch.estimate_batch(&probes);
        sketch.freeze(QuantMode::Int8);
        // Int8 is approximate: estimates stay within a loose q-style
        // band of the reference, and batch == looped singles still holds
        // (both run the fused path).
        let quantized: Vec<f64> = probes.iter().map(|q| sketch.estimate_one(q)).collect();
        for (&r, &f) in reference.iter().zip(&quantized) {
            let ratio = (f / r).max(r / f);
            assert!(ratio < 2.0, "int8 drifted: {f} vs reference {r}");
        }
        assert_eq!(sketch.estimate_batch(&probes), quantized);
    }

    #[test]
    fn frozen_artifact_roundtrips_and_mismatches_are_rejected() {
        use crate::mscn::MscnConfig;

        let (db, sketch) = tiny_sketch();
        assert!(
            sketch.frozen().is_some(),
            "builder must attach the artifact"
        );
        let restored = DeepSketch::from_bytes(&sketch.to_bytes()).unwrap();
        assert_eq!(restored.frozen(), sketch.frozen());

        // An artifact frozen from a different-width model is caught by
        // validate() (typed error, no panic) and rejected on decode.
        let f = sketch.featurizer();
        let alien = MscnModel::new(
            f.table_dim(),
            f.join_dim(),
            f.pred_dim(),
            MscnConfig { hidden: 8, seed: 1 },
        )
        .freeze(QuantMode::F32);
        let mut broken = sketch.clone();
        broken.frozen = Some(alien);
        assert!(broken.frozen_shape_mismatch().is_some());
        let q = parse_query(&db, "SELECT COUNT(*) FROM title").unwrap();
        assert!(matches!(
            broken.try_estimate(&q),
            Err(EstimateError::Unavailable(_))
        ));
        assert!(matches!(
            DeepSketch::from_bytes(&broken.to_bytes()),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let (_db, sketch) = tiny_sketch();
        let mut bytes = sketch.to_bytes();
        assert!(DeepSketch::from_bytes(&bytes[..10]).is_err());
        bytes[0] = b'X';
        assert!(matches!(
            DeepSketch::from_bytes(&bytes),
            Err(DecodeError::BadHeader(_))
        ));
    }

    #[test]
    fn info_summarizes_the_sketch() {
        let (_db, sketch) = tiny_sketch();
        let info = sketch.info();
        assert_eq!(info.database, "imdb");
        assert_eq!(info.tables, 6);
        assert_eq!(info.joins, 5);
        assert_eq!(info.predicate_columns, 9);
        assert_eq!(info.hidden_units, 16);
        assert_eq!(info.model_params, sketch.model().num_params());
        assert_eq!(info.sample_size, 16);
        assert_eq!(info.sample_rows, 6 * 16);
        assert_eq!(info.footprint_bytes, sketch.footprint_bytes());
        let text = info.to_string();
        assert!(text.contains("imdb") && text.contains("6 tables"), "{text}");
    }

    #[test]
    fn footprint_is_compact() {
        let (_db, sketch) = tiny_sketch();
        // A tiny sketch should be well under a MiB; the paper's full-size
        // sketches are "a few MiBs".
        assert!(sketch.footprint_bytes() < 1 << 20);
    }
}
