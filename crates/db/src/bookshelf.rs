//! GSRC Bookshelf format reader and writer.
//!
//! The ISPD 2005 contest benchmarks are distributed in the Bookshelf
//! format: an `.aux` index file naming a `.nodes` (cells), `.nets`
//! (connectivity), `.pl` (placement) and `.scl` (rows) file. This module
//! parses and emits that format so real contest data can replace the
//! synthetic suites when available, and so global-placement results can be
//! handed to external legalizers the way the paper hands them to NTUPlace3.
//!
//! Conventions: Bookshelf stores lower-left cell corners and pin offsets
//! from the cell **center**; [`crate::Design`] stores centers everywhere,
//! so `.pl` coordinates are converted on the way in and out.

use crate::netlist::NetlistBuilder;
use crate::{CellId, CellKind, DbError, Design, Point, Rect, Row};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// In-memory contents of a Bookshelf benchmark (pre-assembly).
#[derive(Debug, Clone, Default)]
struct BookshelfData {
    /// name -> (width, height, is_terminal_keyword)
    nodes: Vec<(String, f64, f64, bool)>,
    /// net name -> pins (cell name, offset from center)
    nets: Vec<(String, Vec<(String, Point)>)>,
    /// name -> (lower-left x, lower-left y, fixed)
    placements: HashMap<String, (f64, f64, bool)>,
    rows: Vec<Row>,
    /// net name -> weight (from the .wts file; default 1.0).
    weights: HashMap<String, f64>,
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// Parses the numeric `field` of a `format` record on line `line`
/// (1-based). A missing token, a non-number and a non-finite value
/// (`NaN`, `inf`) are each a [`DbError::Parse`] that names the field.
fn parse_finite(
    token: Option<&str>,
    format: &str,
    line: usize,
    field: &str,
) -> Result<f64, DbError> {
    let token = token.ok_or_else(|| DbError::parse(format, line, format!("missing {field}")))?;
    let v: f64 = token
        .parse()
        .map_err(|_| DbError::parse(format, line, format!("{field} is not a number")))?;
    if !v.is_finite() {
        return Err(DbError::parse(
            format,
            line,
            format!("{field} is not finite ({v})"),
        ));
    }
    Ok(v)
}

/// The value of a `.scl` `key : value` line numbered `lineno` (1-based),
/// `None` when the line is not one for `key`.
fn parse_kv(line: &str, key: &str, lineno: usize) -> Result<Option<f64>, DbError> {
    let Some(rest) = line.trim().strip_prefix(key) else {
        return Ok(None);
    };
    let Some(rest) = rest.trim_start().strip_prefix(':') else {
        return Ok(None);
    };
    parse_finite(rest.split_whitespace().next(), "scl", lineno, key).map(Some)
}

fn parse_nodes(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty()
            || line.starts_with("UCLA")
            || line.starts_with("NumNodes")
            || line.starts_with("NumTerminals")
        {
            continue;
        }
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| DbError::parse("nodes", lineno + 1, "missing node name"))?;
        let w = parse_finite(it.next(), "nodes", lineno + 1, "width")?;
        let h = parse_finite(it.next(), "nodes", lineno + 1, "height")?;
        let terminal = it
            .next()
            .map(|t| t.eq_ignore_ascii_case("terminal"))
            .unwrap_or(false);
        data.nodes.push((name.to_string(), w, h, terminal));
    }
    if data.nodes.is_empty() {
        return Err(DbError::parse("nodes", 0, "no node records found"));
    }
    Ok(())
}

fn parse_nets(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    let mut current: Option<OpenNet> = None;
    let mut anon = 0usize;
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty()
            || line.starts_with("UCLA")
            || line.starts_with("NumNets")
            || line.starts_with("NumPins")
        {
            continue;
        }
        if let Some(rest) = line.strip_prefix("NetDegree") {
            if let Some(net) = current.take() {
                data.nets.push(net.close()?);
            }
            let rest = rest.trim_start().strip_prefix(':').unwrap_or(rest).trim();
            let mut it = rest.split_whitespace();
            // The declared degree is checked against the pin lines when the
            // net closes; no allocation trusts it.
            let degree = it
                .next()
                .ok_or_else(|| DbError::parse("nets", lineno + 1, "missing net degree"))?
                .parse::<usize>()
                .map_err(|_| DbError::parse("nets", lineno + 1, "degree is not a number"))?;
            let name = it.next().map(str::to_string).unwrap_or_else(|| {
                anon += 1;
                format!("net_{anon}")
            });
            current = Some(OpenNet {
                name,
                degree,
                line: lineno + 1,
                pins: Vec::new(),
            });
        } else {
            let pins = &mut current
                .as_mut()
                .ok_or_else(|| DbError::parse("nets", lineno + 1, "pin before NetDegree"))?
                .pins;
            // "cellname I/O/B : dx dy" (offsets optional)
            let mut it = line.split_whitespace();
            let cell = it
                .next()
                .ok_or_else(|| DbError::parse("nets", lineno + 1, "missing cell name"))?
                .to_string();
            let mut dx = 0.0;
            let mut dy = 0.0;
            let rest: Vec<&str> = it.collect();
            if let Some(colon) = rest.iter().position(|t| *t == ":") {
                if rest.len() >= colon + 3 {
                    dx = parse_finite(Some(rest[colon + 1]), "nets", lineno + 1, "pin x offset")?;
                    dy = parse_finite(Some(rest[colon + 2]), "nets", lineno + 1, "pin y offset")?;
                }
            }
            pins.push((cell, Point::new(dx, dy)));
        }
    }
    if let Some(net) = current.take() {
        data.nets.push(net.close()?);
    }
    Ok(())
}

/// A `.nets` net whose pin lines are still being read.
struct OpenNet {
    name: String,
    /// The `NetDegree` value as declared.
    degree: usize,
    /// 1-based line of the `NetDegree` record.
    line: usize,
    pins: Vec<(String, Point)>,
}

impl OpenNet {
    /// The finished net, or a parse error naming it when its pin lines do
    /// not match its declared degree (a truncated or garbled file).
    fn close(self) -> Result<(String, Vec<(String, Point)>), DbError> {
        if self.pins.len() != self.degree {
            return Err(DbError::parse(
                "nets",
                self.line,
                format!(
                    "net `{}` declares {} pins but {} follow",
                    self.name,
                    self.degree,
                    self.pins.len()
                ),
            ));
        }
        Ok((self.name, self.pins))
    }
}

/// Parses a `.wts` net-weights file: `netname weight` per line.
fn parse_wts(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| DbError::parse("wts", lineno + 1, "missing net name"))?;
        let weight = parse_finite(it.next(), "wts", lineno + 1, "weight")?;
        if weight < 0.0 {
            return Err(DbError::parse("wts", lineno + 1, "negative net weight"));
        }
        data.weights.insert(name.to_string(), weight);
    }
    Ok(())
}

fn parse_pl(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with("UCLA") {
            continue;
        }
        let mut it = line.split_whitespace();
        let name = it
            .next()
            .ok_or_else(|| DbError::parse("pl", lineno + 1, "missing cell name"))?;
        let x = parse_finite(it.next(), "pl", lineno + 1, "x")?;
        let y = parse_finite(it.next(), "pl", lineno + 1, "y")?;
        let fixed = line.contains("/FIXED");
        data.placements.insert(name.to_string(), (x, y, fixed));
    }
    Ok(())
}

fn parse_scl(content: &str, data: &mut BookshelfData) -> Result<(), DbError> {
    let mut y = None;
    let mut height = None;
    let mut site_width = 1.0;
    let mut origin = None;
    let mut num_sites = None;
    for (lineno, raw) in content.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() || line.starts_with("UCLA") || line.starts_with("NumRows") {
            continue;
        }
        if line.starts_with("CoreRow") {
            y = None;
            height = None;
            site_width = 1.0;
            origin = None;
            num_sites = None;
        } else if let Some(v) = parse_kv(line, "Coordinate", lineno + 1)? {
            y = Some(v);
        } else if let Some(v) = parse_kv(line, "Height", lineno + 1)? {
            height = Some(v);
        } else if let Some(v) = parse_kv(line, "Sitewidth", lineno + 1)? {
            site_width = v;
        } else if line.starts_with("SubrowOrigin") {
            // "SubrowOrigin : 0 NumSites : 100"
            let tokens: Vec<&str> = line.split_whitespace().collect();
            for w in tokens.windows(3) {
                let slot = match w[0] {
                    "SubrowOrigin" => &mut origin,
                    "NumSites" => &mut num_sites,
                    _ => continue,
                };
                if w[1] == ":" {
                    *slot = Some(parse_finite(Some(w[2]), "scl", lineno + 1, w[0])?);
                }
            }
        } else if line.starts_with("End") {
            let (y, height) = match (y, height) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(DbError::parse(
                        "scl",
                        lineno + 1,
                        "row block missing Coordinate or Height",
                    ))
                }
            };
            let x_min = origin.unwrap_or(0.0);
            let sites: f64 = num_sites.unwrap_or(0.0);
            data.rows.push(Row {
                y,
                height,
                x_min,
                x_max: x_min + sites * site_width,
                site_width,
            });
        }
    }
    Ok(())
}

fn assemble(name: &str, data: BookshelfData, target_density: f64) -> Result<Design, DbError> {
    let mut builder = NetlistBuilder::with_capacity(data.nodes.len(), data.nets.len(), 0);
    let mut ids: HashMap<String, CellId> = HashMap::with_capacity(data.nodes.len());
    let mut dims: HashMap<String, (f64, f64)> = HashMap::with_capacity(data.nodes.len());
    for (node_name, w, h, terminal_kw) in &data.nodes {
        let fixed = data.placements.get(node_name).map(|p| p.2).unwrap_or(false);
        let kind = if *terminal_kw || fixed {
            if *w * *h > 0.0 {
                CellKind::Fixed
            } else {
                CellKind::Terminal
            }
        } else {
            CellKind::Movable
        };
        let id = builder.add_cell(node_name.clone(), *w, *h, kind);
        ids.insert(node_name.clone(), id);
        dims.insert(node_name.clone(), (*w, *h));
    }
    for (net_name, pins) in &data.nets {
        let mut resolved = Vec::with_capacity(pins.len());
        for (cell_name, offset) in pins {
            let id = ids
                .get(cell_name)
                .copied()
                .ok_or_else(|| DbError::UnknownCell(cell_name.clone()))?;
            resolved.push((id, *offset));
        }
        let weight = data.weights.get(net_name).copied().unwrap_or(1.0);
        builder.add_net_weighted(net_name.clone(), resolved, weight)?;
    }
    let netlist = builder.finish()?;

    // Region: bounding box of rows if present, else of placements.
    let region = if data.rows.is_empty() {
        let mut r: Option<Rect> = None;
        for (nm, (x, y, _)) in &data.placements {
            let (w, h) = dims.get(nm).copied().unwrap_or((0.0, 0.0));
            let cell_rect = Rect::new(*x, *y, x + w, y + h);
            r = Some(match r {
                Some(acc) => acc.union(&cell_rect),
                None => cell_rect,
            });
        }
        r.ok_or_else(|| DbError::InvalidDesign("no rows and no placements".into()))?
    } else {
        let mut r = data.rows[0].rect();
        for row in &data.rows[1..] {
            r = r.union(&row.rect());
        }
        r
    };

    let mut positions = vec![region.center(); netlist.num_cells()];
    for (nm, (x, y, _)) in &data.placements {
        if let Some(&id) = ids.get(nm) {
            let (w, h) = dims[nm];
            positions[id.index()] = Point::new(x + w * 0.5, y + h * 0.5);
        }
    }

    Design::new(name, netlist, region, data.rows, target_density, positions)
}

/// Reads a Bookshelf benchmark starting from its `.aux` file.
///
/// The target density is not part of the format; callers supply it (the
/// ISPD 2005 contest used 1.0, the paper's flows commonly use 0.9).
///
/// # Errors
///
/// Returns [`DbError::Io`] on file-system problems and [`DbError::Parse`]
/// with file kind and line number on malformed content.
pub fn read_aux(aux_path: &Path, target_density: f64) -> Result<Design, DbError> {
    let aux = fs::read_to_string(aux_path)?;
    let dir = aux_path.parent().unwrap_or_else(|| Path::new("."));
    let mut files: Vec<PathBuf> = Vec::new();
    for token in aux.split_whitespace() {
        if token.contains('.') && !token.ends_with(':') {
            files.push(dir.join(token));
        }
    }
    let mut data = BookshelfData::default();
    let mut found_nodes = false;
    let mut found_nets = false;
    for f in &files {
        let ext = f.extension().and_then(|e| e.to_str()).unwrap_or("");
        let content = match ext {
            "nodes" | "nets" | "pl" | "scl" => fs::read_to_string(f)?,
            // .wts files are optional in many releases.
            "wts" => match fs::read_to_string(f) {
                Ok(c) => c,
                Err(_) => continue,
            },
            _ => continue,
        };
        match ext {
            "nodes" => {
                parse_nodes(&content, &mut data)?;
                found_nodes = true;
            }
            "nets" => {
                parse_nets(&content, &mut data)?;
                found_nets = true;
            }
            "pl" => parse_pl(&content, &mut data)?,
            "scl" => parse_scl(&content, &mut data)?,
            "wts" => parse_wts(&content, &mut data)?,
            _ => unreachable!(),
        }
    }
    if !found_nodes || !found_nets {
        return Err(DbError::parse(
            "aux",
            1,
            "aux file does not name .nodes and .nets files",
        ));
    }
    let name = aux_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design")
        .to_string();
    assemble(&name, data, target_density)
}

/// Writes a design as a Bookshelf benchmark into `dir`, producing
/// `<name>.aux/.nodes/.nets/.pl/.scl`, and returns the `.aux` path.
///
/// # Errors
///
/// Returns [`DbError::Io`] on file-system problems.
pub fn write_design(design: &Design, dir: &Path) -> Result<PathBuf, DbError> {
    fs::create_dir_all(dir)?;
    let name = design.name();
    let nl = design.netlist();

    let mut nodes = String::from("UCLA nodes 1.0\n");
    let terminals = nl.cells().iter().filter(|c| !c.is_movable()).count();
    let _ = writeln!(nodes, "NumNodes : {}", nl.num_cells());
    let _ = writeln!(nodes, "NumTerminals : {terminals}");
    for c in nl.cells() {
        if c.is_movable() {
            let _ = writeln!(nodes, "\t{} {} {}", c.name(), c.width(), c.height());
        } else {
            let _ = writeln!(
                nodes,
                "\t{} {} {} terminal",
                c.name(),
                c.width(),
                c.height()
            );
        }
    }

    let mut nets = String::from("UCLA nets 1.0\n");
    let _ = writeln!(nets, "NumNets : {}", nl.num_nets());
    let _ = writeln!(nets, "NumPins : {}", nl.num_pins());
    for net in nl.nets() {
        let _ = writeln!(nets, "NetDegree : {} {}", net.degree(), net.name());
        for pid in net.pins() {
            let pin = nl.pin(pid);
            let cell = nl.cell(pin.cell);
            let _ = writeln!(
                nets,
                "\t{} B : {:.6} {:.6}",
                cell.name(),
                pin.offset.x,
                pin.offset.y
            );
        }
    }

    let mut pl = String::from("UCLA pl 1.0\n");
    for (i, c) in nl.cells().iter().enumerate() {
        let p = design.positions()[i];
        let lx = p.x - c.width() * 0.5;
        let ly = p.y - c.height() * 0.5;
        if c.is_movable() {
            let _ = writeln!(pl, "{} {:.6} {:.6} : N", c.name(), lx, ly);
        } else {
            let _ = writeln!(pl, "{} {:.6} {:.6} : N /FIXED", c.name(), lx, ly);
        }
    }

    let mut scl = String::from("UCLA scl 1.0\n");
    let _ = writeln!(scl, "NumRows : {}", design.rows().len());
    for row in design.rows() {
        let _ = writeln!(scl, "CoreRow Horizontal");
        let _ = writeln!(scl, "  Coordinate : {}", row.y);
        let _ = writeln!(scl, "  Height : {}", row.height);
        let _ = writeln!(scl, "  Sitewidth : {}", row.site_width);
        let _ = writeln!(scl, "  Sitespacing : {}", row.site_width);
        let _ = writeln!(scl, "  Siteorient : 1");
        let _ = writeln!(scl, "  Sitesymmetry : 1");
        let _ = writeln!(
            scl,
            "  SubrowOrigin : {} NumSites : {}",
            row.x_min,
            row.num_sites()
        );
        let _ = writeln!(scl, "End");
    }

    let aux =
        format!("RowBasedPlacement : {name}.nodes {name}.nets {name}.wts {name}.pl {name}.scl\n");

    fs::write(dir.join(format!("{name}.nodes")), nodes)?;
    fs::write(dir.join(format!("{name}.nets")), nets)?;
    fs::write(dir.join(format!("{name}.pl")), pl)?;
    fs::write(dir.join(format!("{name}.scl")), scl)?;
    let mut wts = String::from("UCLA wts 1.0\n");
    for net in nl.nets() {
        if (net.weight() - 1.0).abs() > 1e-12 {
            let _ = writeln!(wts, "{} {}", net.name(), net.weight());
        }
    }
    fs::write(dir.join(format!("{name}.wts")), wts)?;
    let aux_path = dir.join(format!("{name}.aux"));
    fs::write(&aux_path, aux)?;
    Ok(aux_path)
}

/// Writes only a `.pl` placement file for `design` (the artifact a global
/// placer hands to an external legalizer).
///
/// # Errors
///
/// Returns [`DbError::Io`] on file-system problems.
pub fn write_pl(design: &Design, path: &Path) -> Result<(), DbError> {
    let nl = design.netlist();
    let mut pl = String::from("UCLA pl 1.0\n");
    for (i, c) in nl.cells().iter().enumerate() {
        let p = design.positions()[i];
        let lx = p.x - c.width() * 0.5;
        let ly = p.y - c.height() * 0.5;
        let suffix = if c.is_movable() { "" } else { " /FIXED" };
        let _ = writeln!(pl, "{} {:.6} {:.6} : N{}", c.name(), lx, ly, suffix);
    }
    fs::write(path, pl)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::{synthesize, SynthesisSpec};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xplace_bookshelf_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_design() {
        let design = synthesize(
            &SynthesisSpec::new("rt", 120, 130)
                .with_seed(3)
                .with_macro_count(2),
        )
        .unwrap();
        let dir = temp_dir("roundtrip");
        let aux = write_design(&design, &dir).unwrap();
        let back = read_aux(&aux, design.target_density()).unwrap();

        assert_eq!(back.netlist().num_cells(), design.netlist().num_cells());
        assert_eq!(back.netlist().num_nets(), design.netlist().num_nets());
        assert_eq!(back.netlist().num_pins(), design.netlist().num_pins());
        assert_eq!(back.rows().len(), design.rows().len());
        // HPWL is a full functional of positions + offsets + connectivity.
        let a = design.total_hpwl();
        let b = back.total_hpwl();
        assert!((a - b).abs() < 1e-6 * a.max(1.0), "hpwl {a} vs {b}");
        // Cell kinds survive.
        for id in design.netlist().cell_ids() {
            let orig = design.netlist().cell(id);
            let echo = back.netlist().cell_by_name(orig.name()).unwrap();
            assert_eq!(back.netlist().cell(echo).kind(), orig.kind());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_handwritten_benchmark() {
        let dir = temp_dir("hand");
        fs::write(
            dir.join("mini.aux"),
            "RowBasedPlacement : mini.nodes mini.nets mini.wts mini.pl mini.scl\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.nodes"),
            "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n\
             \ta 2 12\n\tb 4 12\n\tpad 0 0 terminal\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.nets"),
            "UCLA nets 1.0\nNumNets : 2\nNumPins : 4\n\
             NetDegree : 2 n0\n\ta B : 0.5 0\n\tb B : -1 0\n\
             NetDegree : 2 n1\n\ta B : 0 0\n\tpad B : 0 0\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.pl"),
            "UCLA pl 1.0\na 10 12 : N\nb 20 24 : N\npad 0 0 : N /FIXED\n",
        )
        .unwrap();
        fs::write(
            dir.join("mini.scl"),
            "UCLA scl 1.0\nNumRows : 2\n\
             CoreRow Horizontal\n  Coordinate : 0\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 50\nEnd\n\
             CoreRow Horizontal\n  Coordinate : 12\n  Height : 12\n  Sitewidth : 1\n  SubrowOrigin : 0 NumSites : 50\nEnd\n",
        )
        .unwrap();

        let d = read_aux(&dir.join("mini.aux"), 0.9).unwrap();
        assert_eq!(d.netlist().num_cells(), 3);
        assert_eq!(d.netlist().num_nets(), 2);
        assert_eq!(d.rows().len(), 2);
        // a is movable at lower-left (10,12) with size 2x12 -> center (11,18).
        let a = d.netlist().cell_by_name("a").unwrap();
        assert_eq!(d.position(a), Point::new(11.0, 18.0));
        // pad is a zero-area fixed node -> Terminal.
        let pad = d.netlist().cell_by_name("pad").unwrap();
        assert_eq!(d.netlist().cell(pad).kind(), CellKind::Terminal);
        // Region spans the rows: x in [0,50], y in [0,24].
        assert_eq!(d.region(), Rect::new(0.0, 0.0, 50.0, 24.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wts_weights_are_applied_and_round_trip() {
        let mut data = BookshelfData::default();
        parse_nodes("UCLA nodes 1.0\n a 1 1\n b 1 1\n", &mut data).unwrap();
        parse_nets(
            "NetDegree : 2 crit\n a B : 0 0\n b B : 0 0\nNetDegree : 2 plain\n a B : 0 0\n b B : 0 0\n",
            &mut data,
        )
        .unwrap();
        parse_wts("UCLA wts 1.0\ncrit 3.5\n", &mut data).unwrap();
        parse_pl("a 0 0 : N\nb 5 5 : N\n", &mut data).unwrap();
        let d = assemble("w", data, 0.9).unwrap();
        let nl = d.netlist();
        let crit = nl.nets().find(|n| n.name() == "crit").unwrap();
        let plain = nl.nets().find(|n| n.name() == "plain").unwrap();
        assert_eq!(crit.weight(), 3.5);
        assert_eq!(plain.weight(), 1.0);
    }

    #[test]
    fn malformed_wts_reports_line() {
        let mut data = BookshelfData::default();
        let err = parse_wts("UCLA wts 1.0\nnet_a not_a_number\n", &mut data).unwrap_err();
        assert!(matches!(err, DbError::Parse { line: 2, .. }));
        let err = parse_wts("net_a -2\n", &mut data).unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }));
    }

    #[test]
    fn unknown_cell_in_nets_is_an_error() {
        let mut data = BookshelfData::default();
        parse_nodes("UCLA nodes 1.0\n a 1 1\n", &mut data).unwrap();
        parse_nets("NetDegree : 2 n\n a B : 0 0\n ghost B : 0 0\n", &mut data).unwrap();
        let err = assemble("x", data, 0.9).unwrap_err();
        assert!(matches!(err, DbError::UnknownCell(_)));
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let mut data = BookshelfData::default();
        let err = parse_nodes("UCLA nodes 1.0\n a pants 1\n", &mut data).unwrap_err();
        match err {
            DbError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected_naming_file_line_and_field() {
        type Parser = fn(&str, &mut BookshelfData) -> Result<(), DbError>;
        let cases: [(Parser, &str, &str); 7] = [
            (
                parse_pl,
                "UCLA pl 1.0\no1 NaN 3 : N\n",
                "pl parse error at line 2: x is not finite (NaN)",
            ),
            (
                parse_pl,
                "p0 5 inf : N /FIXED\n",
                "pl parse error at line 1: y is not finite (inf)",
            ),
            (
                parse_nodes,
                "UCLA nodes 1.0\n a inf 1\n",
                "nodes parse error at line 2: width is not finite (inf)",
            ),
            (
                parse_nets,
                "NetDegree : 2 n\n a B : nan 0\n",
                "nets parse error at line 2: pin x offset is not finite (NaN)",
            ),
            (
                parse_wts,
                "net_a NaN\n",
                "wts parse error at line 1: weight is not finite (NaN)",
            ),
            (
                parse_scl,
                "CoreRow Horizontal\n Coordinate : -inf\n",
                "scl parse error at line 2: Coordinate is not finite (-inf)",
            ),
            (
                parse_scl,
                "CoreRow Horizontal\n SubrowOrigin : 0 NumSites : infinity\n",
                "scl parse error at line 2: NumSites is not finite (inf)",
            ),
        ];
        for (parse, text, expected) in cases {
            let err = parse(text, &mut BookshelfData::default()).unwrap_err();
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn pin_before_net_degree_is_an_error() {
        let mut data = BookshelfData::default();
        let err = parse_nets("a B : 0 0\n", &mut data).unwrap_err();
        assert!(matches!(err, DbError::Parse { .. }));
    }

    #[test]
    fn huge_declared_net_degree_is_not_trusted() {
        // A degree no file can hold is refused by name, with both counts,
        // and sizes no allocation.
        let mut data = BookshelfData::default();
        let text = "NetDegree : 18446744073709551615 n0\n a I : 0 0\n b O : 0 0\n";
        let err = parse_nets(text, &mut data).unwrap_err();
        assert_eq!(
            err.to_string(),
            "nets parse error at line 1: net `n0` declares 18446744073709551615 pins but 2 follow"
        );

        // A declared empty net parses and is named at assembly.
        let mut data = BookshelfData::default();
        parse_nodes("a 1 1\n", &mut data).unwrap();
        parse_nets("NetDegree : 0 n0\n", &mut data).unwrap();
        let err = assemble("x", data, 0.9).unwrap_err();
        assert_eq!(err.to_string(), "invalid design: net `n0` has no pins");
    }

    #[test]
    fn truncated_net_is_a_named_parse_error() {
        // The file ends two pins short of the last net's declared degree.
        let text = "UCLA nets 1.0\nNumNets : 2\n\
                    NetDegree : 2 n0\n a I : 0 0\n b O : 0 0\n\
                    NetDegree : 4 n1\n a I : 0 0\n b O : 0 0\n";
        let err = parse_nets(text, &mut BookshelfData::default()).unwrap_err();
        assert_eq!(
            err,
            DbError::parse("nets", 6, "net `n1` declares 4 pins but 2 follow")
        );

        // A net cut short in the middle names that net, anonymous or not.
        let text = "NetDegree : 3\n a I : 0 0\nNetDegree : 1 n1\n a I : 0 0\n";
        let err = parse_nets(text, &mut BookshelfData::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "nets parse error at line 1: net `net_1` declares 3 pins but 1 follow"
        );
    }

    #[test]
    fn missing_files_produce_io_errors() {
        let err = read_aux(Path::new("/nonexistent/foo.aux"), 0.9).unwrap_err();
        assert!(matches!(err, DbError::Io(_)));
    }

    #[test]
    fn write_pl_emits_fixed_markers() {
        let design = synthesize(
            &SynthesisSpec::new("plq", 50, 55)
                .with_seed(4)
                .with_macro_count(1),
        )
        .unwrap();
        let dir = temp_dir("pl");
        let path = dir.join("out.pl");
        write_pl(&design, &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("/FIXED"));
        assert!(text.starts_with("UCLA pl 1.0"));
        let _ = fs::remove_dir_all(&dir);
    }
}
