//! Synthetic circuit generation.
//!
//! The ISPD 2005/2015 contest releases are large proprietary-format data
//! drops; this module is the documented substitution (see `DESIGN.md`): a
//! parameterized generator that produces placement instances matching the
//! *statistics* that drive global-placement behaviour — cell count, net
//! count, a power-law net-degree distribution, Rent-style net locality
//! (net spans drawn log-uniformly over a conceptual linear hierarchy),
//! macro/terminal fractions, row geometry and whitespace.
//!
//! Real ISPD 2005 contest data still drops in through [`crate::bookshelf`]
//! when available.

use crate::netlist::NetlistBuilder;
use crate::{CellId, CellKind, DbError, Design, Point, Rect, Row};
use xplace_testkit::Rng;

/// Connectivity structure of a generated design.
///
/// The random topology reproduces contest-style statistics (power-law
/// degrees, Rent-style locality); the array/dataflow topologies reproduce
/// the *regular* structure of accelerator designs (DG-RePlAce's
/// observation) so the multilevel clustering and the scaling bench have
/// realistic 100k–1M-cell inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Power-law degrees with log-uniform net windows (the default).
    #[default]
    Random,
    /// A 2-D systolic array: nearest-neighbour 2-pin nets along rows and
    /// columns of an `R x C` processing-element grid.
    SystolicGrid,
    /// An FFT dataflow graph: `w` lanes by `log2(w)+1` stages with 4-pin
    /// butterfly nets between consecutive stages.
    FftButterfly,
}

impl Topology {
    /// Parses a CLI/manifest name (`random`, `systolic`, `butterfly`).
    pub fn parse(name: &str) -> Option<Topology> {
        match name {
            "random" => Some(Topology::Random),
            "systolic" => Some(Topology::SystolicGrid),
            "butterfly" => Some(Topology::FftButterfly),
            _ => None,
        }
    }

    /// The CLI/manifest name of this topology.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Random => "random",
            Topology::SystolicGrid => "systolic",
            Topology::FftButterfly => "butterfly",
        }
    }
}

/// Parameters controlling synthetic circuit generation.
///
/// ```
/// use xplace_db::synthesis::{SynthesisSpec, synthesize};
///
/// # fn main() -> Result<(), xplace_db::DbError> {
/// let spec = SynthesisSpec::new("fft_like", 2_000, 1_900)
///     .with_seed(42)
///     .with_macro_count(4)
///     .with_utilization(0.5);
/// let design = synthesize(&spec)?;
/// design.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisSpec {
    /// Design name.
    pub name: String,
    /// Number of movable standard cells.
    pub num_cells: usize,
    /// Target number of nets (actual count may differ by a few percent
    /// because every cell is guaranteed at least one connection).
    pub num_nets: usize,
    /// Number of fixed macro blocks.
    pub num_macros: usize,
    /// Fraction of the die area covered by macros.
    pub macro_area_fraction: f64,
    /// Number of I/O terminals on the periphery.
    pub num_terminals: usize,
    /// Desired movable-area / free-area utilization.
    pub utilization: f64,
    /// Benchmark target density `D_t` (must be >= utilization).
    pub target_density: f64,
    /// Placement row height in database units.
    pub row_height: f64,
    /// Power-law exponent of the net-degree distribution (larger = more
    /// 2-pin nets).
    pub degree_exponent: f64,
    /// Maximum net degree.
    pub max_net_degree: usize,
    /// Die aspect ratio (width / height).
    pub aspect: f64,
    /// Number of fence regions (each confines a contiguous slice of cells
    /// to a band along the top edge of the die).
    pub num_fences: usize,
    /// Connectivity structure ([`Topology::Random`] unless overridden;
    /// the structured topologies treat `num_nets` as advisory).
    pub topology: Topology,
    /// RNG seed; the generator is fully deterministic given the spec.
    pub seed: u64,
}

impl SynthesisSpec {
    /// Creates a spec with sensible defaults for everything but the name
    /// and cell/net counts.
    pub fn new(name: impl Into<String>, num_cells: usize, num_nets: usize) -> Self {
        SynthesisSpec {
            name: name.into(),
            num_cells,
            num_nets,
            num_macros: 0,
            macro_area_fraction: 0.0,
            num_terminals: 64,
            utilization: 0.7,
            target_density: 0.9,
            row_height: 12.0,
            degree_exponent: 2.4,
            max_net_degree: 24,
            aspect: 1.0,
            num_fences: 0,
            topology: Topology::Random,
            seed: 1,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds `count` fixed macros covering `fraction` of the die
    /// (default fraction 0.15 when macros are requested).
    pub fn with_macro_count(mut self, count: usize) -> Self {
        self.num_macros = count;
        if count > 0 && self.macro_area_fraction == 0.0 {
            self.macro_area_fraction = 0.15;
        }
        self
    }

    /// Sets the macro area fraction of the die.
    pub fn with_macro_area_fraction(mut self, fraction: f64) -> Self {
        self.macro_area_fraction = fraction;
        self
    }

    /// Sets the movable-area utilization.
    pub fn with_utilization(mut self, utilization: f64) -> Self {
        self.utilization = utilization;
        self
    }

    /// Sets the benchmark target density.
    pub fn with_target_density(mut self, density: f64) -> Self {
        self.target_density = density;
        self
    }

    /// Sets the terminal count.
    pub fn with_terminals(mut self, count: usize) -> Self {
        self.num_terminals = count;
        self
    }

    /// Adds `count` fence regions along the top edge of the die, each
    /// confining ~3% of the movable cells.
    pub fn with_fences(mut self, count: usize) -> Self {
        self.num_fences = count;
        self
    }

    /// Sets the connectivity structure.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    fn validate(&self) -> Result<(), DbError> {
        if self.num_cells == 0 {
            return Err(DbError::InvalidSpec("num_cells must be positive".into()));
        }
        if !(self.utilization > 0.0 && self.utilization < 1.0) {
            return Err(DbError::InvalidSpec(format!(
                "utilization {} outside (0, 1)",
                self.utilization
            )));
        }
        if self.target_density < self.utilization {
            return Err(DbError::InvalidSpec(format!(
                "target density {} below utilization {}",
                self.target_density, self.utilization
            )));
        }
        if self.max_net_degree < 2 {
            return Err(DbError::InvalidSpec(
                "max_net_degree must be at least 2".into(),
            ));
        }
        if !(self.macro_area_fraction >= 0.0 && self.macro_area_fraction < 0.6) {
            return Err(DbError::InvalidSpec(format!(
                "macro area fraction {} outside [0, 0.6)",
                self.macro_area_fraction
            )));
        }
        if self.aspect <= 0.0 {
            return Err(DbError::InvalidSpec("aspect must be positive".into()));
        }
        Ok(())
    }
}

/// A random pin offset within `0.8 * (w, h)` of the owning cell's center.
fn pin_offset(rng: &mut Rng, w: f64, h: f64) -> Point {
    Point::new((rng.f64() - 0.5) * w * 0.8, (rng.f64() - 0.5) * h * 0.8)
}

/// Samples a net degree from a truncated power law `p(d) ~ d^-gamma`.
fn sample_degree(rng: &mut Rng, gamma: f64, max_degree: usize) -> usize {
    // Inverse-CDF sampling over the discrete support 2..=max.
    let u: f64 = rng.f64();
    let mut norm = 0.0;
    for d in 2..=max_degree {
        norm += (d as f64).powf(-gamma);
    }
    let mut acc = 0.0;
    for d in 2..=max_degree {
        acc += (d as f64).powf(-gamma) / norm;
        if u <= acc {
            return d;
        }
    }
    max_degree
}

/// Systolic-array dataflow: cells form an `R x C` grid of processing
/// elements, each wired to its right and down neighbour with a 2-pin net.
/// Terminals tap the array cyclically (dataflow in/out at the boundary).
///
/// `spec.num_nets` is advisory here — the topology dictates the net count.
#[allow(clippy::too_many_arguments)]
fn build_systolic_nets(
    builder: &mut NetlistBuilder,
    rng: &mut Rng,
    spec: &SynthesisSpec,
    cell_ids: &[CellId],
    terminal_ids: &[CellId],
    connected: &mut [bool],
    nets_made: &mut usize,
) -> Result<(), DbError> {
    let n = cell_ids.len();
    if n < 2 {
        return Ok(());
    }
    let cols = ((n as f64).sqrt().ceil() as usize).max(1);
    for i in 0..n {
        let c = i % cols;
        if c + 1 < cols && i + 1 < n {
            let pins = vec![
                (cell_ids[i], pin_offset(rng, 2.0, spec.row_height)),
                (cell_ids[i + 1], pin_offset(rng, 2.0, spec.row_height)),
            ];
            builder.add_net(format!("n{nets_made}"), pins)?;
            connected[i] = true;
            connected[i + 1] = true;
            *nets_made += 1;
        }
        if i + cols < n {
            let pins = vec![
                (cell_ids[i], pin_offset(rng, 2.0, spec.row_height)),
                (cell_ids[i + cols], pin_offset(rng, 2.0, spec.row_height)),
            ];
            builder.add_net(format!("n{nets_made}"), pins)?;
            connected[i] = true;
            connected[i + cols] = true;
            *nets_made += 1;
        }
    }
    if !terminal_ids.is_empty() {
        let stride = (n / terminal_ids.len()).max(1);
        for (t, &tid) in terminal_ids.iter().enumerate() {
            let i = (t * stride) % n;
            let pins = vec![
                (cell_ids[i], pin_offset(rng, 2.0, spec.row_height)),
                (tid, Point::default()),
            ];
            builder.add_net(format!("n{nets_made}"), pins)?;
            connected[i] = true;
            *nets_made += 1;
        }
    }
    Ok(())
}

/// FFT dataflow: the largest power-of-two lane count `w` whose full
/// butterfly network `w * (log2(w) + 1)` fits in the design becomes a stack
/// of 4-pin butterfly nets `{(t, j), (t, j^bit), (t+1, j), (t+1, j^bit)}`;
/// leftover cells are chained in, and terminals alternate between the first
/// and last stages (transform inputs and outputs).
///
/// `spec.num_nets` is advisory here — the topology dictates the net count.
#[allow(clippy::too_many_arguments)]
fn build_butterfly_nets(
    builder: &mut NetlistBuilder,
    rng: &mut Rng,
    spec: &SynthesisSpec,
    cell_ids: &[CellId],
    terminal_ids: &[CellId],
    connected: &mut [bool],
    nets_made: &mut usize,
) -> Result<(), DbError> {
    let n = cell_ids.len();
    if n < 2 {
        return Ok(());
    }
    // Largest power-of-two lane count whose full network fits; 0 when even
    // the 2-lane network (4 cells) does not.
    let mut w = 0usize;
    let mut cand = 2usize;
    loop {
        let stages = cand.trailing_zeros() as usize + 1;
        if cand * stages > n {
            break;
        }
        w = cand;
        cand *= 2;
    }
    let stages = if w == 0 {
        0
    } else {
        w.trailing_zeros() as usize
    };
    let used = w * (stages + 1);
    for t in 0..stages {
        let bit = 1usize << t;
        for j in 0..w {
            if j & bit != 0 {
                continue;
            }
            let k = j | bit;
            let quad = [t * w + j, t * w + k, (t + 1) * w + j, (t + 1) * w + k];
            let mut pins = Vec::with_capacity(4);
            for &i in &quad {
                connected[i] = true;
                pins.push((cell_ids[i], pin_offset(rng, 2.0, spec.row_height)));
            }
            builder.add_net(format!("n{nets_made}"), pins)?;
            *nets_made += 1;
        }
    }
    // Chain cells outside the butterfly network into the design.
    let chain_from = used.max(1);
    for i in chain_from..n {
        let pins = vec![
            (cell_ids[i - 1], pin_offset(rng, 2.0, spec.row_height)),
            (cell_ids[i], pin_offset(rng, 2.0, spec.row_height)),
        ];
        builder.add_net(format!("n{nets_made}"), pins)?;
        connected[i - 1] = true;
        connected[i] = true;
        *nets_made += 1;
    }
    if !terminal_ids.is_empty() && w > 0 {
        for (t, &tid) in terminal_ids.iter().enumerate() {
            let j = (t / 2) % w;
            let i = if t % 2 == 0 { j } else { stages * w + j };
            let pins = vec![
                (cell_ids[i], pin_offset(rng, 2.0, spec.row_height)),
                (tid, Point::default()),
            ];
            builder.add_net(format!("n{nets_made}"), pins)?;
            connected[i] = true;
            *nets_made += 1;
        }
    }
    Ok(())
}

/// Generates a placement design from a spec.
///
/// Determinism: the same spec (including seed) always yields the identical
/// design.
///
/// # Errors
///
/// Returns [`DbError::InvalidSpec`] for inconsistent parameters and
/// propagates any constraint violation detected while assembling the
/// design.
pub fn synthesize(spec: &SynthesisSpec) -> Result<Design, DbError> {
    spec.validate()?;
    let mut rng = Rng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut builder = NetlistBuilder::with_capacity(
        spec.num_cells + spec.num_macros + spec.num_terminals,
        spec.num_nets,
        spec.num_nets * 3,
    );

    // --- Standard cells: width 1..=8 sites, geometric-ish distribution. ---
    let site_width = 1.0;
    let mut movable_area = 0.0;
    let mut widest_cell = 0.0f64;
    let mut cell_ids = Vec::with_capacity(spec.num_cells);
    for i in 0..spec.num_cells {
        let sites = {
            let u: f64 = rng.f64();
            // ~55% 1-2 sites, tail up to 8. Round (not floor) so the top
            // of the truncated distribution is actually drawable.
            1 + (7.0 * u * u * u).round() as usize
        };
        let w = sites as f64 * site_width;
        let id = builder.add_cell(format!("o{i}"), w, spec.row_height, CellKind::Movable);
        movable_area += w * spec.row_height;
        widest_cell = widest_cell.max(w);
        cell_ids.push(id);
    }

    // --- Die region sizing. ---
    let free_area = movable_area / spec.utilization;
    let die_area = if spec.macro_area_fraction > 0.0 {
        free_area / (1.0 - spec.macro_area_fraction)
    } else {
        free_area
    };
    let height = (die_area / spec.aspect).sqrt();
    let num_rows = (height / spec.row_height).ceil().max(4.0) as usize;
    let height = num_rows as f64 * spec.row_height;
    // Tiny designs can size a die narrower than their widest cell (the
    // row-count floor above stretches the height); widen to fit.
    let width = (die_area / height).max(widest_cell);
    let region = Rect::new(0.0, 0.0, width, height);
    let rows: Vec<Row> = (0..num_rows)
        .map(|r| Row {
            y: r as f64 * spec.row_height,
            height: spec.row_height,
            x_min: 0.0,
            x_max: width,
            site_width,
        })
        .collect();

    // --- Macros: laid out on a shuffled coarse grid so they never overlap. ---
    let mut macro_ids = Vec::with_capacity(spec.num_macros);
    let mut macro_pos = Vec::with_capacity(spec.num_macros);
    if spec.num_macros > 0 {
        let macro_total = die_area * spec.macro_area_fraction;
        let side = (macro_total / spec.num_macros as f64).sqrt();
        let grid = (spec.num_macros as f64).sqrt().ceil() as usize;
        let mut slots: Vec<(usize, usize)> =
            (0..grid * grid).map(|k| (k % grid, k / grid)).collect();
        // Fisher-Yates shuffle.
        for i in (1..slots.len()).rev() {
            let j = rng.gen_range(0..=i);
            slots.swap(i, j);
        }
        let pitch_x = width / grid as f64;
        let pitch_y = height / grid as f64;
        let side = side.min(pitch_x * 0.85).min(pitch_y * 0.85);
        for (m, &(gx, gy)) in slots.iter().take(spec.num_macros).enumerate() {
            let jitter_x = (rng.f64() - 0.5) * (pitch_x - side) * 0.8;
            let jitter_y = (rng.f64() - 0.5) * (pitch_y - side) * 0.8;
            let cx = (gx as f64 + 0.5) * pitch_x + jitter_x;
            let cy = (gy as f64 + 0.5) * pitch_y + jitter_y;
            // Snap to row grid for realism.
            let cy = (cy / spec.row_height).round() * spec.row_height;
            let id = builder.add_cell(format!("m{m}"), side, side, CellKind::Fixed);
            macro_ids.push(id);
            macro_pos.push(Point::new(
                cx.clamp(side * 0.5, width - side * 0.5),
                cy.clamp(side * 0.5, height - side * 0.5),
            ));
        }
    }

    // --- Terminals on the periphery. ---
    let mut terminal_ids = Vec::with_capacity(spec.num_terminals);
    let mut terminal_pos = Vec::with_capacity(spec.num_terminals);
    for t in 0..spec.num_terminals {
        let id = builder.add_cell(format!("p{t}"), 0.0, 0.0, CellKind::Terminal);
        let side = rng.gen_range(0..4u8);
        let frac: f64 = rng.f64();
        let p = match side {
            0 => Point::new(frac * width, 0.0),
            1 => Point::new(frac * width, height),
            2 => Point::new(0.0, frac * height),
            _ => Point::new(width, frac * height),
        };
        terminal_ids.push(id);
        terminal_pos.push(p);
    }

    // --- Nets. ---
    let n = spec.num_cells;
    let mut connected = vec![false; n];
    let mut nets_made = 0usize;
    match spec.topology {
        Topology::Random => {
            // Rent-style locality over the linear cell ordering. A design
            // with fewer than 2 movable cells cannot host a random net at
            // all — the fix-up pass below wires the lone cell.
            let reserve = n / 16; // headroom for the connectivity fix-up pass
            let target = spec.num_nets.saturating_sub(reserve.min(spec.num_nets / 8));
            while n >= 2 && nets_made < target {
                // Degree clamped to the distinct cells available so the
                // member sampling below can never demand duplicates.
                let degree =
                    sample_degree(&mut rng, spec.degree_exponent, spec.max_net_degree).min(n);
                let center = rng.gen_range(0..n);
                // Log-uniform window between the degree and the whole
                // design: most nets are local, a few span the hierarchy.
                // The `as usize` cast floors (window 0 would yield
                // single-pin nets) and an oversampled window must not
                // exceed `n` (the `n - window` below would underflow):
                // clamp into [degree, n].
                let span_min = (degree * 4).min(n);
                let ratio = n as f64 / span_min.max(1) as f64;
                let window = (span_min as f64 * ratio.powf(rng.f64().powi(2))) as usize;
                let window = window.clamp(degree, n);
                let lo = center.saturating_sub(window / 2).min(n - window);
                let mut members = Vec::with_capacity(degree + 1);
                let mut tries = 0;
                while members.len() < degree && tries < degree * 8 {
                    let idx = lo + rng.gen_range(0..window);
                    if !members.contains(&idx) {
                        members.push(idx);
                    }
                    tries += 1;
                }
                if members.len() < 2 {
                    continue;
                }
                let mut pins: Vec<(CellId, Point)> = Vec::with_capacity(members.len() + 1);
                for &idx in &members {
                    connected[idx] = true;
                    pins.push((cell_ids[idx], pin_offset(&mut rng, 2.0, spec.row_height)));
                }
                // Occasionally attach a macro or terminal pin.
                if !macro_ids.is_empty() && rng.f64() < 0.04 {
                    let m = macro_ids[rng.gen_range(0..macro_ids.len())];
                    pins.push((m, pin_offset(&mut rng, 4.0, 4.0)));
                } else if !terminal_ids.is_empty() && rng.f64() < 0.03 {
                    let t = terminal_ids[rng.gen_range(0..terminal_ids.len())];
                    pins.push((t, Point::default()));
                }
                builder.add_net(format!("n{nets_made}"), pins)?;
                nets_made += 1;
            }
        }
        Topology::SystolicGrid => build_systolic_nets(
            &mut builder,
            &mut rng,
            spec,
            &cell_ids,
            &terminal_ids,
            &mut connected,
            &mut nets_made,
        )?,
        Topology::FftButterfly => build_butterfly_nets(
            &mut builder,
            &mut rng,
            spec,
            &cell_ids,
            &terminal_ids,
            &mut connected,
            &mut nets_made,
        )?,
    }

    // --- Connectivity fix-up: every movable cell gets at least one net. ---
    for idx in 0..n {
        if !connected[idx] {
            let mut pins = vec![(cell_ids[idx], pin_offset(&mut rng, 2.0, spec.row_height))];
            if n >= 2 {
                let partner = if idx + 1 < n { idx + 1 } else { idx - 1 };
                pins.push((
                    cell_ids[partner],
                    pin_offset(&mut rng, 2.0, spec.row_height),
                ));
                connected[partner] = true;
            } else if let Some(&t) = terminal_ids.first() {
                // A single movable cell has no movable partner: wire it to
                // a terminal instead of duplicating its own pin on the net.
                pins.push((t, Point::default()));
            } else if let Some(&m) = macro_ids.first() {
                pins.push((m, pin_offset(&mut rng, 4.0, 4.0)));
            } else {
                // No second endpoint exists anywhere; a duplicate-cell or
                // single-pin net would be worse than leaving the lone cell
                // unconnected.
                continue;
            }
            builder.add_net(format!("n{nets_made}"), pins)?;
            connected[idx] = true;
            nets_made += 1;
        }
    }

    let netlist = builder.finish()?;

    // --- Initial positions: movable cells clustered at the die center. ---
    let center = region.center();
    let mut positions = vec![Point::default(); netlist.num_cells()];
    for &c in &cell_ids {
        let jitter = Point::new(
            (rng.f64() - 0.5) * width * 0.02,
            (rng.f64() - 0.5) * height * 0.02,
        );
        positions[c.index()] = center + jitter;
    }
    for (i, &m) in macro_ids.iter().enumerate() {
        positions[m.index()] = macro_pos[i];
    }
    for (i, &t) in terminal_ids.iter().enumerate() {
        positions[t.index()] = terminal_pos[i];
    }

    let mut design = Design::new(
        &spec.name,
        netlist,
        region,
        rows,
        spec.target_density,
        positions,
    )?;

    // --- Fence regions: bands along the top edge, each owning a
    // contiguous slice of movable cells (placed at the fence center so
    // the initial state is feasible). ---
    if spec.num_fences > 0 {
        let k = spec.num_fences;
        let band_h = ((height * 0.2) / spec.row_height).floor() * spec.row_height;
        let band_h = band_h.max(spec.row_height * 2.0);
        let band_y = ((height - band_h) / spec.row_height).floor() * spec.row_height;
        let pitch = width / k as f64;
        let members_per_fence = (n / 32).clamp(2, n / k.max(1));
        let mut fences = Vec::with_capacity(k);
        let mut positions = design.positions().to_vec();
        for fi in 0..k {
            let fence_rect = crate::Rect::new(
                fi as f64 * pitch + pitch * 0.1,
                band_y,
                fi as f64 * pitch + pitch * 0.9,
                band_y + band_h,
            );
            let start = fi * members_per_fence;
            let members: Vec<crate::CellId> =
                cell_ids[start..(start + members_per_fence).min(cell_ids.len())].to_vec();
            for &m in &members {
                positions[m.index()] = fence_rect.center();
            }
            fences.push(crate::FenceRegion::new(
                format!("fence_{fi}"),
                vec![fence_rect],
                members,
            )?);
        }
        design.set_positions(positions);
        design.set_fences(fences)?;
    }

    design.validate()?;
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DesignStats;

    #[test]
    fn generates_requested_counts_approximately() {
        let spec = SynthesisSpec::new("t", 1000, 1050).with_seed(3);
        let d = synthesize(&spec).unwrap();
        let s = DesignStats::of(&d);
        assert_eq!(s.num_movable, 1000);
        assert!(
            (s.num_nets as f64 - 1050.0).abs() / 1050.0 < 0.15,
            "net count {} too far from target",
            s.num_nets
        );
        assert!(s.avg_net_degree >= 2.0 && s.avg_net_degree < 8.0);
    }

    #[test]
    fn is_deterministic_given_seed() {
        let spec = SynthesisSpec::new("t", 400, 420).with_seed(9);
        let a = synthesize(&spec).unwrap();
        let b = synthesize(&spec).unwrap();
        assert_eq!(a.netlist().num_nets(), b.netlist().num_nets());
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.total_hpwl(), b.total_hpwl());
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(&SynthesisSpec::new("t", 400, 420).with_seed(1)).unwrap();
        let b = synthesize(&SynthesisSpec::new("t", 400, 420).with_seed(2)).unwrap();
        assert_ne!(a.positions(), b.positions());
    }

    #[test]
    fn every_movable_cell_is_connected() {
        let d = synthesize(&SynthesisSpec::new("t", 600, 500).with_seed(5)).unwrap();
        let nl = d.netlist();
        for c in nl.cell_ids() {
            if nl.cell(c).is_movable() {
                assert!(!nl.pins_of_cell(c).is_empty(), "cell {c} has no pins");
            }
        }
    }

    #[test]
    fn macros_do_not_overlap_each_other() {
        let d = synthesize(
            &SynthesisSpec::new("t", 800, 820)
                .with_seed(7)
                .with_macro_count(9),
        )
        .unwrap();
        let nl = d.netlist();
        let macros: Vec<_> = nl
            .cell_ids()
            .filter(|&c| nl.cell(c).kind() == CellKind::Fixed)
            .map(|c| d.cell_rect(c))
            .collect();
        assert_eq!(macros.len(), 9);
        for i in 0..macros.len() {
            for j in i + 1..macros.len() {
                assert!(
                    !macros[i].intersects(&macros[j]),
                    "macros {i} and {j} overlap: {} vs {}",
                    macros[i],
                    macros[j]
                );
            }
        }
    }

    #[test]
    fn macros_lie_inside_region() {
        let d = synthesize(
            &SynthesisSpec::new("t", 500, 510)
                .with_seed(11)
                .with_macro_count(4),
        )
        .unwrap();
        let nl = d.netlist();
        for c in nl.cell_ids() {
            if nl.cell(c).kind() == CellKind::Fixed {
                assert!(d.region().contains_rect(&d.cell_rect(c)));
            }
        }
    }

    #[test]
    fn utilization_close_to_spec() {
        let spec = SynthesisSpec::new("t", 2000, 2100)
            .with_seed(13)
            .with_utilization(0.6);
        let d = synthesize(&spec).unwrap();
        assert!(
            (d.utilization() - 0.6).abs() < 0.05,
            "utilization {}",
            d.utilization()
        );
    }

    #[test]
    fn degree_distribution_is_power_law_ish() {
        let d = synthesize(&SynthesisSpec::new("t", 3000, 3200).with_seed(17)).unwrap();
        let nl = d.netlist();
        let two_pin = nl.nets().filter(|n| n.degree() == 2).count();
        let frac = two_pin as f64 / nl.num_nets() as f64;
        assert!(frac > 0.4 && frac < 0.9, "2-pin fraction {frac}");
        let max = nl.nets().map(|n| n.degree()).max().unwrap();
        assert!(max > 4, "no high-degree nets at all");
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(synthesize(&SynthesisSpec::new("t", 0, 10)).is_err());
        let mut s = SynthesisSpec::new("t", 10, 10);
        s.utilization = 1.5;
        assert!(synthesize(&s).is_err());
        let mut s = SynthesisSpec::new("t", 10, 10);
        s.target_density = 0.5;
        s.utilization = 0.8;
        assert!(synthesize(&s).is_err());
        let mut s = SynthesisSpec::new("t", 10, 10);
        s.max_net_degree = 1;
        assert!(synthesize(&s).is_err());
    }

    /// Regression: tiny designs used to panic — with the default degree cap
    /// of 24 the sampled degree routinely exceeds the cell count, and
    /// `window.clamp(degree, n)` (then `n - window`) blew up. Pinned seeds
    /// so the exact draws replay forever.
    #[test]
    fn tiny_design_window_does_not_underflow() {
        for seed in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            for cells in [2usize, 3, 5, 8] {
                let d = synthesize(&SynthesisSpec::new("t", cells, cells + 2).with_seed(seed))
                    .unwrap_or_else(|e| panic!("cells={cells} seed={seed}: {e}"));
                d.validate().unwrap();
            }
        }
    }

    /// Regression: a 1-cell design used to pair the lone cell with itself
    /// in the connectivity fix-up, putting the same cell twice on one net.
    /// It must wire to a terminal (or macro) instead, and with no fixed
    /// geometry at all the cell stays unconnected rather than degenerate.
    #[test]
    fn single_cell_design_wires_to_fixed_geometry() {
        let d = synthesize(&SynthesisSpec::new("t", 1, 1).with_seed(31)).unwrap();
        let nl = d.netlist();
        assert_eq!(nl.num_nets(), 1);
        let net = nl.nets().next().unwrap();
        assert_eq!(net.degree(), 2);
        let cells: Vec<_> = net.pins().map(|p| nl.pin(p).cell).collect();
        assert_ne!(cells[0], cells[1], "net repeats the lone cell");

        let bare = synthesize(
            &SynthesisSpec::new("t", 1, 1)
                .with_seed(31)
                .with_terminals(0),
        )
        .unwrap();
        assert_eq!(bare.netlist().num_nets(), 0);
    }

    /// Regression: the cell-width sites sampler truncated `7 * u^3` toward
    /// zero, so the 8-site top of the distribution was unreachable. With
    /// rounding, a large design draws the full 1..=8 range.
    #[test]
    fn sites_sampler_reaches_the_distribution_top() {
        let d = synthesize(&SynthesisSpec::new("t", 4000, 4100).with_seed(37)).unwrap();
        let nl = d.netlist();
        let widths: Vec<f64> = nl
            .cell_ids()
            .filter(|&c| nl.cell(c).is_movable())
            .map(|c| nl.cell(c).width())
            .collect();
        let min = widths.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = widths.iter().cloned().fold(0.0, f64::max);
        assert_eq!(min, 1.0, "narrowest cell should be one site");
        assert_eq!(max, 8.0, "8-site tail never drawn");
    }

    /// Regression: a degenerate zero-width window could emit single-pin
    /// (zero-HPWL) nets; the window is now floored at the degree.
    #[test]
    fn no_single_pin_nets_at_pinned_seeds() {
        for seed in [41u64, 43, 47, 53] {
            let d = synthesize(&SynthesisSpec::new("t", 64, 80).with_seed(seed)).unwrap();
            for net in d.netlist().nets() {
                assert!(
                    net.degree() >= 2,
                    "seed {seed}: net {} degenerate",
                    net.id()
                );
            }
        }
    }

    #[test]
    fn systolic_grid_wires_nearest_neighbours() {
        let spec = SynthesisSpec::new("sys", 9, 9)
            .with_seed(59)
            .with_terminals(4)
            .with_topology(Topology::SystolicGrid);
        let d = synthesize(&spec).unwrap();
        let nl = d.netlist();
        // A 3x3 grid has 6 right + 6 down neighbour nets plus 4 I/O taps.
        assert_eq!(nl.num_nets(), 16);
        assert!(nl.nets().all(|n| n.degree() == 2));
        for c in nl.cell_ids() {
            if nl.cell(c).is_movable() {
                assert!(!nl.pins_of_cell(c).is_empty());
            }
        }
    }

    #[test]
    fn butterfly_builds_four_pin_stages() {
        // 12 cells fit a 4-lane, 3-stage butterfly exactly: 2 stages of
        // 2 butterflies, all degree 4.
        let spec = SynthesisSpec::new("fft", 12, 12)
            .with_seed(61)
            .with_terminals(0)
            .with_topology(Topology::FftButterfly);
        let d = synthesize(&spec).unwrap();
        let nl = d.netlist();
        let quads = nl.nets().filter(|n| n.degree() == 4).count();
        assert_eq!(quads, 4);
        for c in nl.cell_ids() {
            assert!(!nl.pins_of_cell(c).is_empty());
        }
    }

    #[test]
    fn topology_names_round_trip() {
        for t in [
            Topology::Random,
            Topology::SystolicGrid,
            Topology::FftButterfly,
        ] {
            assert_eq!(Topology::parse(t.name()), Some(t));
        }
        assert_eq!(Topology::parse("mesh"), None);
    }

    #[test]
    fn initial_positions_cluster_at_center() {
        let d = synthesize(&SynthesisSpec::new("t", 300, 320).with_seed(23)).unwrap();
        let c = d.region().center();
        let nl = d.netlist();
        for id in nl.cell_ids() {
            if nl.cell(id).is_movable() {
                let p = d.position(id);
                assert!((p.x - c.x).abs() < d.region().width() * 0.05);
                assert!((p.y - c.y).abs() < d.region().height() * 0.05);
            }
        }
    }

    #[test]
    fn rows_tile_the_region() {
        let d = synthesize(&SynthesisSpec::new("t", 200, 210).with_seed(29)).unwrap();
        let rows = d.rows();
        assert!(!rows.is_empty());
        let total: f64 = rows.iter().map(|r| r.rect().area()).sum();
        assert!((total - d.region_area()).abs() < 1e-6 * d.region_area());
    }
}
