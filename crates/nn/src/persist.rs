//! Model persistence: save a trained FNO to disk and load it back.
//!
//! The format is a small self-describing text header (format version +
//! architecture + parameter count) followed by the flat parameter vector
//! in full-precision hex floats, so a model trained once (e.g. the
//! paper-scale 471k-parameter network) can be reused across placement
//! runs without retraining and round-trips bit-exactly.

use crate::{Fno, FnoConfig, NnError};
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: &str = "xplace-fno";
const FORMAT_VERSION: u32 = 1;

fn bad(msg: impl Into<String>) -> NnError {
    NnError::InvalidInput(msg.into())
}

impl Fno {
    /// Serializes the model (architecture + parameters) to a text blob.
    pub fn to_text(&self) -> String {
        let c = self.config();
        let params = self.params();
        let mut out = String::with_capacity(params.len() * 20 + 128);
        let _ = writeln!(out, "{MAGIC} {FORMAT_VERSION}");
        let _ = writeln!(
            out,
            "width {} modes {} layers {} proj_hidden {}",
            c.width, c.modes, c.num_layers, c.proj_hidden
        );
        let _ = writeln!(out, "params {}", params.len());
        for v in params {
            // Bit-exact round trip via the IEEE-754 bit pattern.
            let _ = writeln!(out, "{:016x}", v.to_bits());
        }
        out
    }

    /// Reconstructs a model from [`Fno::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] for malformed content, an unknown
    /// format version, or a parameter count that does not match the
    /// declared architecture.
    pub fn from_text(text: &str) -> Result<Self, NnError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty model file"))?;
        let mut it = header.split_whitespace();
        if it.next() != Some(MAGIC) {
            return Err(bad("not an xplace-fno model file"));
        }
        let version: u32 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("missing format version"))?;
        if version != FORMAT_VERSION {
            return Err(bad(format!("unsupported model format version {version}")));
        }

        let arch = lines
            .next()
            .ok_or_else(|| bad("missing architecture line"))?;
        let fields: Vec<&str> = arch.split_whitespace().collect();
        let field = |key: &str| -> Result<usize, NnError> {
            fields
                .iter()
                .position(|f| *f == key)
                .and_then(|i| fields.get(i + 1))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(format!("missing architecture field `{key}`")))
        };
        let config = FnoConfig {
            width: field("width")?,
            modes: field("modes")?,
            num_layers: field("layers")?,
            proj_hidden: field("proj_hidden")?,
        };

        let count_line = lines.next().ok_or_else(|| bad("missing params line"))?;
        let count: usize = count_line
            .strip_prefix("params ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| bad("malformed params line"))?;

        // Every count is checked before anything is allocated, so no header
        // number sizes an allocation: the parameter vector grows with the
        // lines actually present, and `Fno::new` only runs once the
        // architecture's count matches both the header and those lines.
        let needed = config
            .param_count()
            .ok_or_else(|| bad("model architecture's parameter count overflows"))?;
        if count != needed {
            return Err(bad(format!(
                "model file declares {count} parameters but the architecture needs {needed}"
            )));
        }
        let mut params = Vec::new();
        for (i, line) in lines.enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bits = u64::from_str_radix(line, 16)
                .map_err(|_| bad(format!("malformed parameter at index {i}")))?;
            params.push(f64::from_bits(bits));
        }
        if params.len() != count {
            return Err(bad(format!(
                "model file has {} parameters, header declares {count}",
                params.len()
            )));
        }
        let mut fno = Fno::new(&config, 0)?;
        fno.set_params(&params);
        Ok(fno)
    }

    /// Saves the model to a file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] wrapping any I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), NnError> {
        std::fs::write(path, self.to_text())
            .map_err(|e| bad(format!("cannot write model file: {e}")))
    }

    /// Loads a model from a file produced by [`Fno::save`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidInput`] for I/O failures or malformed
    /// content (see [`Fno::from_text`]).
    pub fn load(path: &Path) -> Result<Self, NnError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| bad(format!("cannot read model file: {e}")))?;
        Self::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataConfig;
    use crate::train::{train, TrainConfig};

    #[test]
    fn save_load_round_trips_predictions_exactly() {
        let mut fno = Fno::new(&FnoConfig::tiny(), 11).unwrap();
        let cfg = TrainConfig {
            steps: 30,
            batch: 2,
            lr: 3e-3,
            data: DataConfig {
                grid: 16,
                blobs: 2,
                rects: 1,
                ..Default::default()
            },
            seed: 77,
        };
        train(&mut fno, &cfg).unwrap();
        let density: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
        let before = fno.predict_field_x(&density, 16, 16).unwrap();

        let text = fno.to_text();
        let mut restored = Fno::from_text(&text).unwrap();
        let after = restored.predict_field_x(&density, 16, 16).unwrap();
        assert_eq!(before, after, "restored model must predict bit-identically");
    }

    #[test]
    fn file_round_trip() {
        let fno = Fno::new(&FnoConfig::tiny(), 3).unwrap();
        let path = std::env::temp_dir().join(format!("xplace_fno_{}.model", std::process::id()));
        fno.save(&path).unwrap();
        let restored = Fno::load(&path).unwrap();
        assert_eq!(restored.num_params(), fno.num_params());
        assert_eq!(restored.config(), fno.config());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_files_are_rejected() {
        assert!(Fno::from_text("").is_err());
        assert!(Fno::from_text("wrong-magic 1\n").is_err());
        assert!(Fno::from_text("xplace-fno 99\n").is_err());
        let fno = Fno::new(&FnoConfig::tiny(), 1).unwrap();
        // Truncated parameter list.
        let text = fno.to_text();
        let truncated: String = text.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(Fno::from_text(&truncated).is_err());
        // Count/architecture mismatch.
        let text = fno.to_text().replace("params ", "params 1");
        assert!(Fno::from_text(&text).is_err());
    }

    #[test]
    fn oversized_headers_are_rejected_before_allocating() {
        let header = |width: &str, params: &str, lines: usize| {
            let mut text = format!(
                "xplace-fno 1\nwidth {width} modes 1 layers 1 proj_hidden 1\nparams {params}\n"
            );
            text.push_str(&"0000000000000000\n".repeat(lines));
            text
        };
        // 2^63: the lift's 3 x width overflows usize.
        let overflow = header("9223372036854775808", "3", 3);
        assert!(matches!(
            Fno::from_text(&overflow),
            Err(NnError::InvalidInput(_))
        ));
        // 2^20 declares ~5.5e12 parameters, matching its header, with only
        // three present: rejected without allocating for the declared count.
        let w: u64 = 1 << 20;
        let needed = (5 * w * w + 6 * w + 3).to_string();
        for params in [needed.as_str(), "3"] {
            assert!(matches!(
                Fno::from_text(&header("1048576", params, 3)),
                Err(NnError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn architecture_param_count_matches_the_allocation() {
        for config in [FnoConfig::tiny(), FnoConfig::paper()] {
            let fno = Fno::new(&config, 0).unwrap();
            assert_eq!(config.param_count(), Some(fno.num_params()));
        }
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(Fno::load(Path::new("/nonexistent/model.file")).is_err());
    }
}
