//! GP checkpoint/resume: a complete snapshot of the Nesterov loop state
//! (JSON-serialized only when a file store writes it), taken every C
//! iterations, from which a killed
//! run restarts and replays a **byte-identical trace suffix** and final
//! placement versus the uninterrupted run — at any `--threads`.
//!
//! The snapshot captures everything the loop carries across iterations:
//! the reference solution held in the model (`x`/`y`, fillers included),
//! the loop's own [`LoopState`] (optimizer, scheduler parameters, ω,
//! rollback snapshot, telemetry edge triggers, previous evaluation), the
//! engine's skip-window bookkeeping **including the cached electrostatic
//! field** (skipped iterations serve gradients from it), and the modeled
//! device profile accumulated so far (so `RunEnd` totals match).
//!
//! Saving emits no telemetry and reads no clocks, so a checkpointing
//! run's trace is byte-identical to a non-checkpointing run's. The
//! profile is stored in the trace's [`ProfileDelta`] form, without the
//! measured `cpu_ns`, so two runs that save at the same iteration write
//! the same bytes.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::engine::{unit_hash, EngineState};
use crate::{EvalResult, NesterovOptimizer, Parameters, PlaceError, XplaceConfig};
use xplace_db::Design;
use xplace_device::ProfileSnapshot;
use xplace_ops::PlacementModel;
use xplace_telemetry::{
    json_struct, ConfigEcho, FromJson, Json, JsonError, ProfileDelta, Stage, ToJson,
};

/// Format tag embedded in every checkpoint payload.
const FORMAT: &str = "xplace-checkpoint";
/// Payload version; bumped on any layout change.
const VERSION: usize = 2;

/// The values the GP loop carries from one iteration to the next, apart
/// from the positions held in the model and the engine's own state. The
/// placer runs on one of these, and a [`Checkpoint`] stores a clone.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopState {
    /// Scheduler parameters (γ, λ, update bookkeeping).
    pub params: Parameters,
    /// Precondition weighted ratio ω after the previous step.
    pub omega: f64,
    /// Optimizer; `None` until the first step.
    pub optimizer: Option<NesterovOptimizer>,
    /// HPWL at iteration 0.
    pub initial_hpwl: f64,
    /// Overflow at iteration 0.
    pub initial_overflow: f64,
    /// Best overflow seen so far (`INFINITY` encodes as `null`).
    pub best_overflow: f64,
    /// Iteration of the best overflow.
    pub best_iter: usize,
    /// Best-solution snapshot (`u` over optimizable nodes): the
    /// rollback target when the run does not converge. The density
    /// system can oscillate once λ saturates, so the run keeps its best
    /// point (DREAMPlace-style divergence guard).
    pub best_u: Option<(Vec<f64>, Vec<f64>)>,
    /// Telemetry edge-trigger: current ω stage.
    pub stage: Stage,
    /// Telemetry edge-trigger: whether the skip window was open.
    pub skip_window_open: bool,
    /// Result of the previous iteration's evaluation.
    pub last_eval: Option<EvalResult>,
}

impl LoopState {
    /// The state of a run at iteration 0.
    pub(crate) fn new(bin_size: f64) -> LoopState {
        LoopState {
            params: Parameters::new(bin_size),
            omega: 0.0,
            optimizer: None,
            initial_hpwl: 0.0,
            initial_overflow: 0.0,
            best_overflow: f64::INFINITY,
            best_iter: 0,
            best_u: None,
            stage: Stage::Early,
            skip_window_open: false,
            last_eval: None,
        }
    }
}

/// A complete snapshot of the GP loop at the top of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Design name (resume validates it).
    pub design: String,
    /// Total cell count of the design.
    pub cells: usize,
    /// Movable cell count.
    pub movable: usize,
    /// Configuration echo of the run that saved the checkpoint; resume
    /// refuses a mismatched configuration (the trace suffix could not be
    /// byte-identical).
    pub config: ConfigEcho,
    /// The iteration the snapshot was taken at (the resume point).
    pub iteration: usize,
    /// Model x positions over all nodes (cells + fillers) — the Nesterov
    /// reference solution `v`.
    pub x: Vec<f64>,
    /// Model y positions.
    pub y: Vec<f64>,
    /// The loop's cross-iteration values.
    pub state: LoopState,
    /// Engine cross-iteration state (skip bookkeeping + cached field).
    pub engine: EngineState,
    /// Modeled device profile accumulated up to the snapshot (`cpu_ns`
    /// is not saved and parses back as 0).
    pub profile: ProfileSnapshot,
}

json_struct!(EvalResult {
    wa,
    hpwl,
    overflow,
    wl_grad_l1,
    density_grad_l1,
    r_ratio,
    density_skipped,
    skip_window,
});

json_struct!(NesterovOptimizer {
    u_x,
    u_y,
    prev_v_x,
    prev_v_y,
    prev_g_x,
    prev_g_y,
    a,
    have_prev,
    initial_step,
    max_disp,
    last_step,
});

json_struct!(EngineState {
    last_r,
    field_age,
    has_field,
    cached_overflow,
    field_x,
    field_y,
});

// Hand-written: `last_hpwl`/`last_overflow` are `INFINITY` until the
// first parameter update, which JSON can only carry as `null`.
impl ToJson for Parameters {
    fn to_json(&self) -> Json {
        Json::obj([
            ("gamma", self.gamma.to_json()),
            ("lambda", self.lambda.to_json()),
            ("iteration", self.iteration.to_json()),
            ("last_hpwl", self.last_hpwl.to_json()),
            ("last_overflow", self.last_overflow.to_json()),
            ("lambda_initialized", self.lambda_initialized.to_json()),
        ])
    }
}

impl FromJson for Parameters {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Parameters {
            gamma: value.decode("gamma")?,
            lambda: value.decode("lambda")?,
            iteration: value.decode("iteration")?,
            last_hpwl: value
                .decode::<Option<_>>("last_hpwl")?
                .unwrap_or(f64::INFINITY),
            last_overflow: value
                .decode::<Option<_>>("last_overflow")?
                .unwrap_or(f64::INFINITY),
            lambda_initialized: value.decode("lambda_initialized")?,
        })
    }
}

impl ToJson for Checkpoint {
    fn to_json(&self) -> Json {
        let s = &self.state;
        let mut pairs = vec![
            ("format", FORMAT.to_json()),
            ("version", VERSION.to_json()),
            ("design", self.design.to_json()),
            ("cells", self.cells.to_json()),
            ("movable", self.movable.to_json()),
            ("config", self.config.to_json()),
            ("iteration", self.iteration.to_json()),
            ("x", self.x.to_json()),
            ("y", self.y.to_json()),
            ("params", s.params.to_json()),
            ("omega", s.omega.to_json()),
            ("optimizer", s.optimizer.to_json()),
            ("initial_hpwl", s.initial_hpwl.to_json()),
            ("initial_overflow", s.initial_overflow.to_json()),
            ("best_overflow", s.best_overflow.to_json()),
            ("best_iter", s.best_iter.to_json()),
            ("stage", s.stage.to_json()),
            ("skip_window_open", s.skip_window_open.to_json()),
            ("last_eval", s.last_eval.to_json()),
            ("engine", self.engine.to_json()),
            ("profile", ProfileDelta::from(self.profile).to_json()),
        ];
        if let Some((ux, uy)) = &s.best_u {
            pairs.push(("best_u_x", ux.to_json()));
            pairs.push(("best_u_y", uy.to_json()));
        }
        Json::obj(pairs)
    }
}

impl FromJson for Checkpoint {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let format = value.field("format")?.as_str()?;
        if format != FORMAT {
            return Err(JsonError(format!("not a checkpoint (format `{format}`)")));
        }
        let version = value.field("version")?.as_usize()?;
        if version != VERSION {
            return Err(JsonError(format!(
                "unsupported checkpoint version {version} (this build reads {VERSION})"
            )));
        }
        let best_u = match (value.decode_opt("best_u_x")?, value.decode_opt("best_u_y")?) {
            (Some(ux), Some(uy)) => Some((ux, uy)),
            (None, None) => None,
            _ => {
                return Err(JsonError(
                    "checkpoint has only one of best_u_x/best_u_y".to_string(),
                ))
            }
        };
        Ok(Checkpoint {
            design: value.decode("design")?,
            cells: value.decode("cells")?,
            movable: value.decode("movable")?,
            config: value.decode("config")?,
            iteration: value.decode("iteration")?,
            x: value.decode("x")?,
            y: value.decode("y")?,
            state: LoopState {
                params: value.decode("params")?,
                omega: value.decode("omega")?,
                optimizer: value.decode("optimizer")?,
                initial_hpwl: value.decode("initial_hpwl")?,
                initial_overflow: value.decode("initial_overflow")?,
                best_overflow: value
                    .decode::<Option<_>>("best_overflow")?
                    .unwrap_or(f64::INFINITY),
                best_iter: value.decode("best_iter")?,
                best_u,
                stage: value.decode("stage")?,
                skip_window_open: value.decode("skip_window_open")?,
                last_eval: value.decode("last_eval")?,
            },
            engine: value.decode("engine")?,
            profile: value.decode::<ProfileDelta>("profile")?.into(),
        })
    }
}

impl Checkpoint {
    /// Serializes the checkpoint to its JSON payload.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a checkpoint payload.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Checkpoint`] for malformed JSON, a wrong
    /// format tag, or an unsupported version.
    pub fn parse(text: &str) -> Result<Checkpoint, PlaceError> {
        let value = Json::parse(text).map_err(|e| PlaceError::Checkpoint(format!("parse: {e}")))?;
        Checkpoint::from_json(&value).map_err(|e| PlaceError::Checkpoint(e.to_string()))
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Checkpoint`] for I/O failures and malformed
    /// payloads.
    pub fn load(path: &Path) -> Result<Checkpoint, PlaceError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PlaceError::Checkpoint(format!("read {}: {e}", path.display())))?;
        Checkpoint::parse(&text)
    }

    /// Validates that this checkpoint belongs to `design` placed under
    /// `config`. Resume refuses mismatches: a different design or
    /// configuration could not replay a byte-identical trace suffix.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Checkpoint`] naming the first mismatch.
    pub fn validate(&self, design: &Design, config: &XplaceConfig) -> Result<(), PlaceError> {
        if self.design != design.name() {
            return Err(PlaceError::Checkpoint(format!(
                "checkpoint is for design `{}`, run is `{}`",
                self.design,
                design.name()
            )));
        }
        let nl = design.netlist();
        if self.cells != nl.num_cells() || self.movable != nl.num_movable() {
            return Err(PlaceError::Checkpoint(format!(
                "checkpoint design shape {}/{} cells does not match {}/{}",
                self.cells,
                self.movable,
                nl.num_cells(),
                nl.num_movable()
            )));
        }
        let current = config.echo().to_json().render();
        let saved = self.config.to_json().render();
        if current != saved {
            return Err(PlaceError::Checkpoint(
                "checkpoint configuration does not match the run configuration".to_string(),
            ));
        }
        Ok(())
    }

    /// Checks that this snapshot's vectors fit `model`, the model a
    /// resume builds: `x`/`y` cover every node, and each optimizer vector
    /// and both halves of `best_u` cover the optimizable nodes (movable
    /// cells plus fillers).
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::Checkpoint`] naming the first field whose
    /// length is wrong.
    pub(crate) fn check_shape(&self, model: &PlacementModel) -> Result<(), PlaceError> {
        let nodes = model.num_nodes();
        let optimizable = model.optimizable_indices().count();
        let mut fields = vec![("x", &self.x, nodes), ("y", &self.y, nodes)];
        if let Some(o) = &self.state.optimizer {
            fields.extend([
                ("u_x", &o.u_x, optimizable),
                ("u_y", &o.u_y, optimizable),
                ("prev_v_x", &o.prev_v_x, optimizable),
                ("prev_v_y", &o.prev_v_y, optimizable),
                ("prev_g_x", &o.prev_g_x, optimizable),
                ("prev_g_y", &o.prev_g_y, optimizable),
            ]);
        }
        if let Some((ux, uy)) = &self.state.best_u {
            fields.extend([("best_u_x", ux, optimizable), ("best_u_y", uy, optimizable)]);
        }
        match fields.into_iter().find(|(_, v, want)| v.len() != *want) {
            Some((key, v, want)) => Err(PlaceError::Checkpoint(format!(
                "checkpoint {key} has {} entries, the model needs {want}",
                v.len()
            ))),
            None => Ok(()),
        }
    }

    /// Re-homes this snapshot under another run configuration: a clone
    /// whose config echo is `config.echo()`, so [`Checkpoint::validate`]
    /// accepts it for a run using `config`. This is the branch primitive
    /// of the exploration layer — a population member adopts the best
    /// snapshot even though its own seed (and hence config echo) differs
    /// from the member that saved it. Resumed positions come from the
    /// snapshot, never from the seed's init jitter, so the adopted
    /// trajectory is a deterministic function of the snapshot alone.
    pub fn branch_for(&self, config: &XplaceConfig) -> Checkpoint {
        let mut cp = self.clone();
        cp.config = config.echo();
        cp
    }

    /// Applies a seeded perturbation in place: movable positions receive
    /// deterministic jitter (clamped into the snapshot's own position
    /// bounding box — the resume path trusts snapshot positions and does
    /// not re-clamp), λ is rescaled and ω offset, and the optimizer
    /// momentum plus best-solution rollback state are reset so the
    /// branched trajectory genuinely explores from the perturbed point
    /// instead of being pulled back to the parent's. The cached
    /// electrostatic field is invalidated so the first branched iteration
    /// sees the perturbed density. Same snapshot + same `perturbation`
    /// ⇒ bit-identical branched state.
    pub fn perturb(&mut self, perturbation: &Perturbation) {
        let seed = perturbation.seed;
        if perturbation.position_frac > 0.0 && self.movable > 0 {
            let bounds = |v: &[f64]| {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &p in v {
                    lo = lo.min(p);
                    hi = hi.max(p);
                }
                (lo, hi)
            };
            let (min_x, max_x) = bounds(&self.x);
            let (min_y, max_y) = bounds(&self.y);
            let amp_x = (max_x - min_x) * perturbation.position_frac;
            let amp_y = (max_y - min_y) * perturbation.position_frac;
            for i in 0..self.movable.min(self.x.len()) {
                self.x[i] = (self.x[i] + amp_x * unit_hash(i, seed)).clamp(min_x, max_x);
                self.y[i] = (self.y[i] + amp_y * unit_hash(i, seed ^ 0xabcd)).clamp(min_y, max_y);
            }
        }
        // λ rescale (multiplicative, strictly positive for frac < 2) and
        // ω offset: nudge the schedule so the branch walks a different
        // trade-off path than its parent.
        let s = &mut self.state;
        s.params.lambda *= 1.0 + perturbation.lambda_frac * unit_hash(0, seed ^ 0x1a3b);
        s.omega =
            (s.omega + perturbation.omega_shift * unit_hash(1, seed ^ 0x5c7d)).clamp(0.0, 1.0);
        // Fresh momentum, fresh rollback baseline, fresh field.
        s.optimizer = None;
        s.best_overflow = f64::INFINITY;
        s.best_iter = self.iteration;
        s.best_u = None;
        self.engine.has_field = false;
        self.engine.field_age = 0;
    }
}

/// A seeded, deterministic perturbation applied to a branched
/// [`Checkpoint`] — the exploration layer's diversification knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// Seed deriving every jitter value (same seed ⇒ same perturbation).
    pub seed: u64,
    /// Position jitter amplitude as a fraction of the snapshot's movable
    /// bounding-box span.
    pub position_frac: f64,
    /// Maximum relative λ rescale (`0.2` ⇒ factor in `[0.9, 1.1)`).
    pub lambda_frac: f64,
    /// Maximum absolute ω offset (result clamped to `[0, 1]`).
    pub omega_shift: f64,
}

impl Perturbation {
    /// The exploration default: noticeable but non-destructive diversity.
    pub fn with_seed(seed: u64) -> Perturbation {
        Perturbation {
            seed,
            position_frac: 0.02,
            lambda_frac: 0.4,
            omega_shift: 0.1,
        }
    }
}

/// Where checkpoints go. Implementations take `&self` (interior
/// mutability) so a store can outlive a panicking placement attempt and
/// hand the latest snapshot to a retry.
pub trait CheckpointStore {
    /// Persists `checkpoint`. Implementations replace any previous
    /// snapshot (only the latest is ever resumed).
    ///
    /// # Errors
    ///
    /// I/O errors propagate; the placer surfaces them as
    /// [`PlaceError::Checkpoint`] and fails the run rather than silently
    /// continuing without durability.
    fn save(&self, checkpoint: Checkpoint) -> io::Result<()>;
}

/// A checkpoint store writing each snapshot to one file as JSON,
/// atomically (write to `<path>.tmp`, then rename): a crash mid-save
/// leaves the previous snapshot intact.
#[derive(Debug)]
pub struct FileCheckpointStore {
    path: PathBuf,
    saves: AtomicUsize,
}

impl FileCheckpointStore {
    /// A store writing to `path`.
    pub fn new(path: impl Into<PathBuf>) -> FileCheckpointStore {
        FileCheckpointStore {
            path: path.into(),
            saves: AtomicUsize::new(0),
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of snapshots saved.
    pub fn saves(&self) -> usize {
        self.saves.load(Ordering::Relaxed)
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn save(&self, checkpoint: Checkpoint) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(checkpoint.render().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.saves.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// An in-memory checkpoint store keeping the latest snapshot as a value
/// (never rendered to JSON) — the scheduler's retry loop resumes crashed
/// attempts from it.
#[derive(Debug, Default)]
pub struct MemoryCheckpointStore {
    latest: Mutex<Option<Checkpoint>>,
    saves: AtomicUsize,
}

impl MemoryCheckpointStore {
    /// An empty store.
    pub fn new() -> MemoryCheckpointStore {
        MemoryCheckpointStore::default()
    }

    /// The latest snapshot and its iteration, if any was saved.
    ///
    /// # Errors
    ///
    /// None: the store holds values, so there is nothing to parse. The
    /// `Result` remains for existing callers.
    pub fn latest(&self) -> Result<Option<(usize, Checkpoint)>, PlaceError> {
        let latest = self.latest.lock().unwrap().clone();
        Ok(latest.map(|checkpoint| (checkpoint.iteration, checkpoint)))
    }

    /// Number of snapshots saved.
    pub fn saves(&self) -> usize {
        self.saves.load(Ordering::Relaxed)
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&self, checkpoint: Checkpoint) -> io::Result<()> {
        *self.latest.lock().unwrap() = Some(checkpoint);
        self.saves.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Per-call checkpointing options for
/// [`crate::GlobalPlacer::place_traced_opts`].
#[derive(Clone, Copy, Default)]
#[allow(missing_debug_implementations)] // `&dyn CheckpointStore` is not Debug
pub struct CheckpointOptions<'a> {
    /// Snapshot cadence in iterations; `0` disables saving.
    pub every: usize,
    /// Where snapshots go (required when `every > 0`).
    pub store: Option<&'a dyn CheckpointStore>,
    /// Resume point: restart the loop from this snapshot instead of
    /// iteration 0.
    pub resume: Option<&'a Checkpoint>,
    /// Pause point: snapshot the loop state at the top of this iteration
    /// into the store and stop there instead of running to completion
    /// (requires a store). The paused run emits no `run_end` and skips
    /// the best-solution rollback, so a later resume from the snapshot
    /// continues the trace byte-identically — the exploration driver's
    /// generation barrier.
    pub stop_at: Option<usize>,
}

impl<'a> CheckpointOptions<'a> {
    /// No checkpointing, no resume (the plain placement path).
    pub fn none() -> CheckpointOptions<'static> {
        CheckpointOptions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_checkpoint() -> Checkpoint {
        Checkpoint {
            design: "d".to_string(),
            cells: 4,
            movable: 3,
            config: XplaceConfig::xplace().echo(),
            iteration: 7,
            x: vec![1.0, 2.5, -0.125, 9.0],
            y: vec![0.0, 4.0, 8.0, -1.5],
            state: LoopState {
                params: Parameters {
                    gamma: 3.5,
                    lambda: 1e-4,
                    iteration: 7,
                    last_hpwl: f64::INFINITY,
                    last_overflow: 0.8,
                    lambda_initialized: true,
                },
                omega: 0.25,
                optimizer: Some(NesterovOptimizer {
                    u_x: vec![1.0, 2.0],
                    u_y: vec![3.0, 4.0],
                    prev_v_x: vec![0.5, 0.5],
                    prev_v_y: vec![0.25, 0.25],
                    prev_g_x: vec![0.0, -1.0],
                    prev_g_y: vec![1.0, 0.0],
                    a: 1.5,
                    have_prev: true,
                    initial_step: 0.1,
                    max_disp: 10.0,
                    last_step: 0.2,
                }),
                initial_hpwl: 100.0,
                initial_overflow: 0.9,
                best_overflow: f64::INFINITY,
                best_iter: 0,
                best_u: Some((vec![1.0], vec![2.0])),
                stage: Stage::Intermediate,
                skip_window_open: true,
                last_eval: Some(EvalResult {
                    wa: 1.0,
                    hpwl: 2.0,
                    overflow: 0.5,
                    wl_grad_l1: 3.0,
                    density_grad_l1: 4.0,
                    r_ratio: 0.001,
                    density_skipped: true,
                    skip_window: true,
                }),
            },
            engine: EngineState {
                last_r: 0.001,
                field_age: 3,
                has_field: true,
                cached_overflow: 0.5,
                field_x: vec![0.125; 4],
                field_y: vec![-0.25; 4],
            },
            profile: ProfileSnapshot {
                launches: 10,
                syncs: 2,
                launch_overhead_ns: 100,
                exec_ns: 200,
                pipelined_ns: 300,
                sync_stall_ns: 400,
                cpu_ns: 0,
            },
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let cp = tiny_checkpoint();
        let text = cp.render();
        let back = Checkpoint::parse(&text).unwrap();
        assert_eq!(cp, back);
        // Infinity survives the null encoding.
        assert!(back.state.best_overflow.is_infinite());
        assert!(back.state.params.last_hpwl.is_infinite());
        // Floats are bit-exact (testkit renders shortest round-trip).
        assert_eq!(cp.x[2].to_bits(), back.x[2].to_bits());
        // Idempotent re-render.
        assert_eq!(text, back.render());
        // The measured wall time is not part of the payload.
        let mut timed = cp.clone();
        timed.profile.cpu_ns = 500;
        assert_eq!(timed.render(), text);
    }

    #[test]
    fn parse_rejects_foreign_payloads() {
        assert!(matches!(
            Checkpoint::parse("{}"),
            Err(PlaceError::Checkpoint(_))
        ));
        assert!(matches!(
            Checkpoint::parse("not json"),
            Err(PlaceError::Checkpoint(_))
        ));
        let rejects_version = |payload: &Json| match Checkpoint::parse(&payload.render()) {
            Err(PlaceError::Checkpoint(msg)) => msg.contains("unsupported checkpoint version"),
            _ => false,
        };
        let set = |payload: &mut Json, key: &str, value: Json| {
            if let Json::Obj(pairs) = payload {
                match pairs.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => *v = value,
                    None => pairs.push((key.to_string(), value)),
                }
            }
        };
        let mut wrong_version = tiny_checkpoint().to_json();
        set(&mut wrong_version, "version", Json::num(99.0));
        assert!(rejects_version(&wrong_version));
        // A version-1 payload still carrying the energy keys that version
        // dropped is refused for its version, not for a key.
        let mut v1 = tiny_checkpoint().to_json();
        set(&mut v1, "version", Json::num(1.0));
        if let Json::Obj(pairs) = &mut v1 {
            for (k, v) in pairs.iter_mut() {
                match k.as_str() {
                    "last_eval" => set(v, "energy", Json::num(5.0)),
                    "engine" => set(v, "cached_energy", Json::num(5.0)),
                    _ => {}
                }
            }
        }
        assert!(rejects_version(&v1));
    }

    #[test]
    fn memory_store_keeps_only_the_latest() {
        let store = MemoryCheckpointStore::new();
        assert!(store.latest().unwrap().is_none());
        let cp = tiny_checkpoint();
        store.save(cp.clone()).unwrap();
        let mut later = cp.clone();
        later.iteration = 14;
        store.save(later.clone()).unwrap();
        let (iter, loaded) = store.latest().unwrap().unwrap();
        assert_eq!(iter, 14);
        assert_eq!(loaded, later);
        assert_eq!(store.saves(), 2);
    }

    #[test]
    fn file_store_round_trips_and_replaces_atomically() {
        let dir = std::env::temp_dir().join("xplace-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let store = FileCheckpointStore::new(&path);
        let cp = tiny_checkpoint();
        store.save(cp.clone()).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, cp);
        let mut later = cp.clone();
        later.iteration = 21;
        store.save(later).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().iteration, 21);
        assert_eq!(store.saves(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_catches_mismatches() {
        use xplace_db::synthesis::{synthesize, SynthesisSpec};
        let design = synthesize(&SynthesisSpec::new("d", 40, 45).with_seed(1)).unwrap();
        let cfg = XplaceConfig::xplace();
        let mut cp = tiny_checkpoint();
        cp.design = design.name().to_string();
        cp.cells = design.netlist().num_cells();
        cp.movable = design.netlist().num_movable();
        cp.config = cfg.echo();
        assert!(cp.validate(&design, &cfg).is_ok());

        let mut wrong = cp.clone();
        wrong.design = "other".to_string();
        assert!(wrong.validate(&design, &cfg).is_err());
        let mut wrong = cp.clone();
        wrong.cells += 1;
        assert!(wrong.validate(&design, &cfg).is_err());
        let other_cfg = XplaceConfig::xplace().with_seed(999);
        assert!(cp.validate(&design, &other_cfg).is_err());
    }
}
