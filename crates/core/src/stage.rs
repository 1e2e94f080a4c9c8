//! Per-stage knob spaces and composed objectives over a stage DAG.
//!
//! The paper (§II-A) models a workload as an operator DAG partitioned into
//! shuffle-bounded stages but tunes one global configuration per workload.
//! Following "A Spark Optimizer for Adaptive, Fine-Grained Parameter
//! Tuning" (Lyu et al.), this module lets a subset of knobs vary *per
//! stage*: a [`StageSpace`] partitions the flat knob vector into one shared
//! cluster-level (global) block plus one sub-vector per stage, and a
//! [`ComposedObjective`] evaluates each stage's model on its own sub-config
//! and folds the per-stage costs along the DAG — [`Fold::CriticalPath`] for
//! latency-like objectives, [`Fold::Sum`] for cost-like ones.
//!
//! The types here are solver-agnostic: the flat encoded space is an
//! ordinary [`ParamSpace`], so MOGD, the Progressive Frontier algorithms
//! and the exact grid solver all work on the composed problem unchanged.
//! The DAG-ordered coordinate-descent solver lives in `crates/system`
//! (`udao::stage`), which uses the block views exposed here.

use crate::error::{Error, Result};
use crate::objective::ObjectiveModel;
use crate::space::{ParamSpace, ParamSpec};
use crate::{fnv_fold, FNV_OFFSET};
use std::sync::Arc;

/// A stage DAG in dependency form: `deps[i]` lists the stages that must
/// finish before stage `i` starts. Stages are topologically indexed —
/// every dependency points at an *earlier* stage (the same invariant
/// `sparksim::dataflow::DataflowProgram` enforces), which
/// [`StageDag::new`] validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageDag {
    deps: Vec<Vec<usize>>,
    depth: Vec<usize>,
}

impl StageDag {
    /// Build and validate a DAG from dependency lists.
    pub fn new(deps: Vec<Vec<usize>>) -> Result<Self> {
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                if d >= i {
                    return Err(Error::InvalidConfig(format!(
                        "stage {i} depends on stage {d}: dependencies must point at earlier stages"
                    )));
                }
            }
        }
        let mut depth = vec![0usize; deps.len()];
        for i in 0..deps.len() {
            depth[i] = deps[i].iter().map(|&d| depth[d] + 1).max().unwrap_or(0);
        }
        Ok(Self { deps, depth })
    }

    /// A linear chain of `n` stages (`0 -> 1 -> ... -> n-1`).
    pub fn chain(n: usize) -> Self {
        let deps = (0..n).map(|i| if i == 0 { vec![] } else { vec![i - 1] }).collect();
        Self::new(deps).unwrap_or(Self { deps: Vec::new(), depth: Vec::new() })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the DAG has no stages.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// The dependency list of stage `i`.
    pub fn deps(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Length of the longest dependency path ending at stage `i` (sources
    /// have depth 0).
    pub fn topo_depth(&self, i: usize) -> usize {
        self.depth[i]
    }

    /// The canonical stage ordering used by the coordinate-descent solver:
    /// sorted by `(topo_depth, index)`. Any valid topological order of the
    /// DAG canonicalizes to this one, which makes descent results invariant
    /// under topological-order tie permutations by construction.
    pub fn canonical_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&i| (self.depth[i], i));
        order
    }

    /// Whether `order` is a permutation of the stages that respects every
    /// dependency edge.
    pub fn is_topological(&self, order: &[usize]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.len()];
        for (p, &s) in order.iter().enumerate() {
            if s >= self.len() || pos[s] != usize::MAX {
                return false;
            }
            pos[s] = p;
        }
        (0..self.len()).all(|i| self.deps[i].iter().all(|&d| pos[d] < pos[i]))
    }

    /// FNV-1a structural fingerprint of the DAG shape (stage count + edge
    /// lists). Two DAGs share a fingerprint iff they have the same shape,
    /// so frontier-cache keys extended with it never serve a
    /// differently-shaped DAG's frontier.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv_fold(FNV_OFFSET, self.deps.len() as u64);
        for ds in &self.deps {
            h = fnv_fold(h, ds.len() as u64);
            for &d in ds {
                h = fnv_fold(h, d as u64);
            }
        }
        h
    }
}

/// How per-stage objective values compose into the workload-level value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fold {
    /// Workload value = sum of stage values (cost-like objectives: every
    /// stage's resource spend accrues).
    Sum,
    /// Workload value = longest dependency-path sum (latency-like
    /// objectives: stages on different branches overlap, the critical path
    /// bounds the makespan).
    CriticalPath,
}

impl Fold {
    /// Fold per-stage values (`vals[i]` for stage `i`) into the composed
    /// workload value. An empty DAG folds to `0.0` under both folds.
    ///
    /// `vals.len()` must equal `dag.len()`.
    pub fn fold(self, dag: &StageDag, vals: &[f64]) -> f64 {
        assert_eq!(vals.len(), dag.len(), "one value per stage");
        match self {
            Fold::Sum => vals.iter().sum(),
            Fold::CriticalPath => {
                let mut finish = vec![0.0_f64; dag.len()];
                let mut best = 0.0_f64;
                for i in 0..dag.len() {
                    let ready =
                        dag.deps(i).iter().map(|&d| finish[d]).fold(0.0_f64, f64::max);
                    finish[i] = ready + vals[i];
                    best = best.max(finish[i]);
                }
                best
            }
        }
    }

    /// Stable tag folded into cache fingerprints.
    pub fn tag(self) -> u64 {
        match self {
            Fold::Sum => 1,
            Fold::CriticalPath => 2,
        }
    }
}

/// A knob space partitioned into one shared global block plus one identical
/// per-stage block per DAG stage.
///
/// The *flat* encoded layout is `[global | stage 0 | stage 1 | ...]`; each
/// per-stage block repeats the stage template's specs with names suffixed
/// `@s{i}` so rendered configurations stay readable. The flat space is an
/// ordinary [`ParamSpace`], usable by every solver; the block accessors
/// ([`split`](Self::split) / [`concat`](Self::concat) /
/// [`stage_input`](Self::stage_input)) are bitwise copies — no arithmetic —
/// so round-trips are exact.
#[derive(Debug, Clone)]
pub struct StageSpace {
    global: ParamSpace,
    stage: ParamSpace,
    n_stages: usize,
    flat: ParamSpace,
}

impl StageSpace {
    /// Build a stage space: `global` knobs are pinned cluster-wide, the
    /// `stage` template repeats once per stage.
    pub fn new(global: ParamSpace, stage: ParamSpace, n_stages: usize) -> Result<Self> {
        if n_stages == 0 {
            return Err(Error::InvalidConfig("stage space needs at least one stage".into()));
        }
        if stage.is_empty() {
            return Err(Error::InvalidConfig(
                "stage template has no knobs: nothing varies per stage".into(),
            ));
        }
        let mut specs: Vec<ParamSpec> = global.specs().to_vec();
        for i in 0..n_stages {
            for s in stage.specs() {
                let mut spec = s.clone();
                spec.name = format!("{}@s{i}", s.name);
                specs.push(spec);
            }
        }
        let flat = ParamSpace::new(specs)?;
        Ok(Self { global, stage, n_stages, flat })
    }

    /// The shared cluster-level knob block.
    pub fn global_space(&self) -> &ParamSpace {
        &self.global
    }

    /// The per-stage knob template (one copy per stage in the flat layout).
    pub fn stage_space(&self) -> &ParamSpace {
        &self.stage
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Encoded width of the global block.
    pub fn global_dim(&self) -> usize {
        self.global.encoded_dim()
    }

    /// Encoded width of one per-stage block.
    pub fn stage_dim(&self) -> usize {
        self.stage.encoded_dim()
    }

    /// Encoded width of the flat concatenated space.
    pub fn encoded_dim(&self) -> usize {
        self.flat.encoded_dim()
    }

    /// The flat `[global | stage 0 | stage 1 | ...]` space: what solvers
    /// optimize over and what decode/snap/render operate on.
    pub fn flat(&self) -> &ParamSpace {
        &self.flat
    }

    /// Encoded-dimension width a stage's model sees: the global block plus
    /// one stage block.
    pub fn stage_model_dim(&self) -> usize {
        self.global_dim() + self.stage_dim()
    }

    fn check_flat(&self, x: &[f64]) -> Result<()> {
        if x.len() != self.encoded_dim() {
            return Err(Error::DimensionMismatch { expected: self.encoded_dim(), got: x.len() });
        }
        Ok(())
    }

    fn stage_range(&self, i: usize) -> Result<std::ops::Range<usize>> {
        if i >= self.n_stages {
            return Err(Error::InvalidParameter(format!(
                "stage index {i} out of range (n_stages = {})",
                self.n_stages
            )));
        }
        let start = self.global_dim() + i * self.stage_dim();
        Ok(start..start + self.stage_dim())
    }

    /// Split a flat point into `(global, per-stage)` blocks (bitwise copies).
    pub fn split(&self, x: &[f64]) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        self.check_flat(x)?;
        let g = x[..self.global_dim()].to_vec();
        let stages = (0..self.n_stages)
            .map(|i| {
                let r = self.global_dim() + i * self.stage_dim();
                x[r..r + self.stage_dim()].to_vec()
            })
            .collect();
        Ok((g, stages))
    }

    /// Concatenate `(global, per-stage)` blocks back into a flat point —
    /// the bitwise inverse of [`split`](Self::split).
    pub fn concat(&self, global: &[f64], stages: &[Vec<f64>]) -> Result<Vec<f64>> {
        if global.len() != self.global_dim() {
            return Err(Error::DimensionMismatch { expected: self.global_dim(), got: global.len() });
        }
        if stages.len() != self.n_stages {
            return Err(Error::DimensionMismatch { expected: self.n_stages, got: stages.len() });
        }
        let mut x = Vec::with_capacity(self.encoded_dim());
        x.extend_from_slice(global);
        for s in stages {
            if s.len() != self.stage_dim() {
                return Err(Error::DimensionMismatch { expected: self.stage_dim(), got: s.len() });
            }
            x.extend_from_slice(s);
        }
        Ok(x)
    }

    /// The input stage `i`'s model sees at flat point `x`: the global block
    /// concatenated with stage `i`'s block.
    pub fn stage_input(&self, x: &[f64], i: usize) -> Result<Vec<f64>> {
        self.check_flat(x)?;
        let r = self.stage_range(i)?;
        let mut sub = Vec::with_capacity(self.stage_model_dim());
        sub.extend_from_slice(&x[..self.global_dim()]);
        sub.extend_from_slice(&x[r]);
        Ok(sub)
    }

    /// Overwrite stage `i`'s block of `x` with `sub`.
    pub fn write_stage(&self, x: &mut [f64], i: usize, sub: &[f64]) -> Result<()> {
        self.check_flat(x)?;
        if sub.len() != self.stage_dim() {
            return Err(Error::DimensionMismatch { expected: self.stage_dim(), got: sub.len() });
        }
        let r = self.stage_range(i)?;
        x[r].copy_from_slice(sub);
        Ok(())
    }

    /// Overwrite the global block of `x` with `sub`.
    pub fn write_global(&self, x: &mut [f64], sub: &[f64]) -> Result<()> {
        self.check_flat(x)?;
        if sub.len() != self.global_dim() {
            return Err(Error::DimensionMismatch { expected: self.global_dim(), got: sub.len() });
        }
        x[..self.global_dim()].copy_from_slice(sub);
        Ok(())
    }

    /// Structural fingerprint of the space shape (dims + stage count), for
    /// cache keys.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv_fold(FNV_OFFSET, self.n_stages as u64);
        h = fnv_fold(h, self.global_dim() as u64);
        fnv_fold(h, self.stage_dim() as u64)
    }
}

/// A workload-level objective composed from per-stage models: stage `i`'s
/// model is evaluated on `[global | stage i]` and the per-stage values are
/// folded along the DAG.
///
/// Implements [`ObjectiveModel`] over the flat space, so the composed
/// problem drops into MOGD / PF / the exact grid solver unchanged.
pub struct ComposedObjective {
    models: Vec<Arc<dyn ObjectiveModel>>,
    space: StageSpace,
    dag: StageDag,
    fold: Fold,
}

impl ComposedObjective {
    /// Compose per-stage models (`models[i]` for stage `i`, each of dim
    /// `global_dim + stage_dim`) over `dag` with the given fold.
    pub fn new(
        models: Vec<Arc<dyn ObjectiveModel>>,
        space: StageSpace,
        dag: StageDag,
        fold: Fold,
    ) -> Result<Self> {
        if models.len() != dag.len() {
            return Err(Error::DimensionMismatch { expected: dag.len(), got: models.len() });
        }
        if space.n_stages() != dag.len() {
            return Err(Error::DimensionMismatch { expected: dag.len(), got: space.n_stages() });
        }
        for m in &models {
            if m.dim() != space.stage_model_dim() {
                return Err(Error::DimensionMismatch {
                    expected: space.stage_model_dim(),
                    got: m.dim(),
                });
            }
        }
        Ok(Self { models, space, dag, fold })
    }

    /// Per-stage objective values at flat point `x` (before folding).
    pub fn stage_values(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut vals = Vec::with_capacity(self.models.len());
        for (i, m) in self.models.iter().enumerate() {
            vals.push(m.predict(&self.space.stage_input(x, i)?));
        }
        Ok(vals)
    }

    /// The fold this objective composes with.
    pub fn fold_kind(&self) -> Fold {
        self.fold
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &StageDag {
        &self.dag
    }
}

impl ObjectiveModel for ComposedObjective {
    fn dim(&self) -> usize {
        self.space.encoded_dim()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        match self.stage_values(x) {
            Ok(vals) => self.fold.fold(&self.dag, &vals),
            Err(_) => f64::NAN, // surfaced as NonFiniteObjective by evaluate()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnModel;

    fn diamond() -> StageDag {
        StageDag::new(vec![vec![], vec![0], vec![0], vec![1, 2]]).expect("valid dag")
    }

    fn toy_space(n_stages: usize) -> StageSpace {
        let global = ParamSpace::new(vec![ParamSpec::continuous("g", 0.0, 1.0)]).unwrap();
        let stage = ParamSpace::new(vec![ParamSpec::continuous("v", 0.0, 1.0)]).unwrap();
        StageSpace::new(global, stage, n_stages).unwrap()
    }

    #[test]
    fn dag_rejects_forward_and_self_edges() {
        assert!(StageDag::new(vec![vec![], vec![1]]).is_err(), "self edge");
        assert!(StageDag::new(vec![vec![1], vec![]]).is_err(), "forward edge");
        assert!(StageDag::new(vec![vec![], vec![0]]).is_ok());
    }

    #[test]
    fn depths_and_canonical_order() {
        let d = diamond();
        assert_eq!(
            (0..4).map(|i| d.topo_depth(i)).collect::<Vec<_>>(),
            vec![0, 1, 1, 2]
        );
        assert_eq!(d.canonical_order(), vec![0, 1, 2, 3]);
        // Both tie orders of the middle layer are topological...
        assert!(d.is_topological(&[0, 2, 1, 3]));
        assert!(d.is_topological(&[0, 1, 2, 3]));
        // ...but a dependency violation is not.
        assert!(!d.is_topological(&[1, 0, 2, 3]));
        assert!(!d.is_topological(&[0, 1, 2]));
        assert!(!d.is_topological(&[0, 1, 1, 3]));
    }

    #[test]
    fn fingerprints_separate_shapes() {
        let chain = StageDag::chain(4);
        let d = diamond();
        assert_eq!(chain.len(), 4);
        assert_ne!(chain.fingerprint(), d.fingerprint());
        assert_eq!(d.fingerprint(), diamond().fingerprint());
        assert_ne!(StageDag::chain(2).fingerprint(), StageDag::chain(3).fingerprint());
    }

    #[test]
    fn folds_compose_sum_and_critical_path() {
        let d = diamond();
        let vals = [1.0, 2.0, 5.0, 1.0];
        assert_eq!(Fold::Sum.fold(&d, &vals), 9.0);
        // Critical path: 0 -> 2 -> 3 = 1 + 5 + 1.
        assert_eq!(Fold::CriticalPath.fold(&d, &vals), 7.0);
        // Empty DAG folds to zero under both.
        let empty = StageDag::new(vec![]).unwrap();
        assert_eq!(Fold::Sum.fold(&empty, &[]), 0.0);
        assert_eq!(Fold::CriticalPath.fold(&empty, &[]), 0.0);
        // Single stage: both folds are the identity.
        let one = StageDag::chain(1);
        assert_eq!(Fold::Sum.fold(&one, &[3.5]), 3.5);
        assert_eq!(Fold::CriticalPath.fold(&one, &[3.5]), 3.5);
    }

    #[test]
    fn stage_space_layout_and_round_trip() {
        let s = toy_space(3);
        assert_eq!(s.encoded_dim(), 1 + 3);
        assert_eq!(s.stage_model_dim(), 2);
        assert_eq!(s.flat().specs()[1].name, "v@s0");
        assert_eq!(s.flat().specs()[3].name, "v@s2");
        let x = vec![0.5, 0.1, 0.2, 0.3];
        let (g, stages) = s.split(&x).unwrap();
        assert_eq!(g, vec![0.5]);
        assert_eq!(stages, vec![vec![0.1], vec![0.2], vec![0.3]]);
        assert_eq!(s.concat(&g, &stages).unwrap(), x);
        assert_eq!(s.stage_input(&x, 1).unwrap(), vec![0.5, 0.2]);
        let mut y = x.clone();
        s.write_stage(&mut y, 2, &[0.9]).unwrap();
        assert_eq!(y, vec![0.5, 0.1, 0.2, 0.9]);
        s.write_global(&mut y, &[0.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.1, 0.2, 0.9]);
    }

    #[test]
    fn stage_space_rejects_degenerate_and_mismatched_shapes() {
        let global = ParamSpace::new(vec![ParamSpec::continuous("g", 0.0, 1.0)]).unwrap();
        let stage = ParamSpace::new(vec![ParamSpec::continuous("v", 0.0, 1.0)]).unwrap();
        assert!(StageSpace::new(global.clone(), stage.clone(), 0).is_err());
        let empty = ParamSpace::new(vec![]).unwrap();
        assert!(StageSpace::new(global, empty, 2).is_err());
        let s = toy_space(2);
        assert!(s.split(&[0.0; 2]).is_err());
        assert!(s.stage_input(&[0.0; 3], 2).is_err());
        assert!(s.concat(&[0.0], &[vec![0.0]]).is_err());
    }

    #[test]
    fn composed_objective_folds_stage_models() {
        let dag = diamond();
        let space = toy_space(4);
        // Stage model: value = (1 + stage index via weights is not possible
        // here) — use g + v so stage values differ by their sub-config.
        let models: Vec<Arc<dyn ObjectiveModel>> = (0..4)
            .map(|_| Arc::new(FnModel::new(2, |x: &[f64]| x[0] + x[1])) as Arc<dyn ObjectiveModel>)
            .collect();
        let sum =
            ComposedObjective::new(models.clone(), space.clone(), dag.clone(), Fold::Sum).unwrap();
        let cp = ComposedObjective::new(models, space, dag, Fold::CriticalPath).unwrap();
        let x = vec![0.5, 0.1, 0.2, 0.5, 0.1];
        // Stage values: 0.6, 0.7, 1.0, 0.6.
        let vals = sum.stage_values(&x).unwrap();
        assert_eq!(vals, vec![0.6, 0.7, 1.0, 0.6]);
        assert!((sum.predict(&x) - 2.9).abs() < 1e-12);
        // Critical path 0 -> 2 -> 3.
        assert!((cp.predict(&x) - 2.2).abs() < 1e-12);
        assert_eq!(sum.dim(), 5);
    }

    #[test]
    fn composed_objective_validates_shapes() {
        let dag = diamond();
        let space = toy_space(4);
        let wrong_count: Vec<Arc<dyn ObjectiveModel>> =
            vec![Arc::new(FnModel::new(2, |x: &[f64]| x[0]))];
        assert!(ComposedObjective::new(wrong_count, space.clone(), dag.clone(), Fold::Sum)
            .is_err());
        let wrong_dim: Vec<Arc<dyn ObjectiveModel>> = (0..4)
            .map(|_| Arc::new(FnModel::new(3, |x: &[f64]| x[0])) as Arc<dyn ObjectiveModel>)
            .collect();
        assert!(ComposedObjective::new(wrong_dim, space, dag, Fold::Sum).is_err());
    }
}
