//! Reader and writer for the Berkeley/espresso PLA format, the container of
//! the IWLS93/MCNC benchmark circuits the paper maps onto crossbars.
//!
//! Supported directives: `.i`, `.o`, `.p`, `.ilb`, `.ob`, `.type`, `.e`/
//! `.end`. Cube lines follow espresso's conventions: `{0,1,-,2}` for inputs,
//! `{0,1,-,~,2,3,4}` for outputs (with `1`/`4` meaning ON-set membership,
//! `-`/`2` don't-care, everything else OFF).

use crate::cover::Cover;
use crate::cube::{Cube, Phase};
use crate::error::LogicError;
use std::fmt::Write as _;

/// A parsed PLA file: the ON-set cover, the optional DC-set cover, and
/// signal names when present.
#[derive(Debug, Clone, PartialEq)]
pub struct Pla {
    /// ON-set cover.
    pub on_set: Cover,
    /// Don't-care cover (cubes flagged with output `-`/`2`); empty when the
    /// file declares none.
    pub dc_set: Cover,
    /// `.ilb` input labels (empty if absent).
    pub input_labels: Vec<String>,
    /// `.ob` output labels (empty if absent).
    pub output_labels: Vec<String>,
}

impl Pla {
    /// Wraps an ON-set cover with no don't-cares or labels.
    #[must_use]
    pub fn from_cover(on_set: Cover) -> Self {
        let dc_set = Cover::new(on_set.num_inputs(), on_set.num_outputs());
        Self {
            on_set,
            dc_set,
            input_labels: Vec::new(),
            output_labels: Vec::new(),
        }
    }

    /// Parses PLA text.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::ParsePla`] on malformed directives or cube
    /// lines, or when `.i`/`.o` are missing before the first cube.
    pub fn parse(text: &str) -> Result<Self, LogicError> {
        let mut num_inputs: Option<usize> = None;
        let mut num_outputs: Option<usize> = None;
        let mut input_labels = Vec::new();
        let mut output_labels = Vec::new();
        let mut on_cubes: Vec<Cube> = Vec::new();
        let mut dc_cubes: Vec<Cube> = Vec::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| LogicError::ParsePla {
                line: lineno + 1,
                message,
            };
            if let Some(rest) = line.strip_prefix('.') {
                let mut parts = rest.split_whitespace();
                let keyword = parts.next().unwrap_or("");
                match keyword {
                    "i" => {
                        num_inputs = Some(
                            parts
                                .next()
                                .ok_or_else(|| err(".i needs a count".into()))?
                                .parse()
                                .map_err(|_| err(".i count not a number".into()))?,
                        );
                    }
                    "o" => {
                        num_outputs = Some(
                            parts
                                .next()
                                .ok_or_else(|| err(".o needs a count".into()))?
                                .parse()
                                .map_err(|_| err(".o count not a number".into()))?,
                        );
                    }
                    "p" => { /* product count is advisory */ }
                    "ilb" => input_labels = parts.map(str::to_owned).collect(),
                    "ob" => output_labels = parts.map(str::to_owned).collect(),
                    "type" => { /* fr / fd / f: we treat all as ON + DC */ }
                    "e" | "end" => break,
                    other => {
                        return Err(err(format!("unsupported directive .{other}")));
                    }
                }
                continue;
            }
            let ni = num_inputs.ok_or_else(|| err("cube before .i".into()))?;
            let no = num_outputs.ok_or_else(|| err("cube before .o".into()))?;
            let (cube, is_dc) = parse_cube_line_dc(line, ni, no).map_err(err)?;
            if is_dc {
                dc_cubes.push(cube);
            } else if !cube.is_empty() {
                on_cubes.push(cube);
            }
        }

        let ni = num_inputs.ok_or(LogicError::ParsePla {
            line: 0,
            message: "missing .i directive".into(),
        })?;
        let no = num_outputs.ok_or(LogicError::ParsePla {
            line: 0,
            message: "missing .o directive".into(),
        })?;
        Ok(Self {
            on_set: Cover::from_cubes(ni, no, on_cubes)?,
            dc_set: Cover::from_cubes(ni, no, dc_cubes)?,
            input_labels,
            output_labels,
        })
    }

    /// Serializes to PLA text.
    #[must_use]
    pub fn to_pla_string(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, ".i {}", self.on_set.num_inputs());
        let _ = writeln!(s, ".o {}", self.on_set.num_outputs());
        if !self.input_labels.is_empty() {
            let _ = writeln!(s, ".ilb {}", self.input_labels.join(" "));
        }
        if !self.output_labels.is_empty() {
            let _ = writeln!(s, ".ob {}", self.output_labels.join(" "));
        }
        let _ = writeln!(s, ".p {}", self.on_set.len() + self.dc_set.len());
        for cube in self.on_set.iter() {
            let _ = writeln!(s, "{}", format_cube(cube, false));
        }
        for cube in self.dc_set.iter() {
            let _ = writeln!(s, "{}", format_cube(cube, true));
        }
        s.push_str(".e\n");
        s
    }
}

/// Formats one cube as a PLA line.
fn format_cube(cube: &Cube, dc: bool) -> String {
    let mut s = String::with_capacity(cube.num_inputs() + cube.num_outputs() + 1);
    for var in 0..cube.num_inputs() {
        s.push(match cube.var_state(var) {
            crate::cube::VarState::DontCare => '-',
            crate::cube::VarState::Literal(Phase::Positive) => '1',
            crate::cube::VarState::Literal(Phase::Negative) => '0',
            crate::cube::VarState::Empty => '#',
        });
    }
    s.push(' ');
    for out in 0..cube.num_outputs() {
        s.push(if cube.output(out) {
            if dc {
                '-'
            } else {
                '1'
            }
        } else {
            '0'
        });
    }
    s
}

/// Parses one cube line of a PLA body, mapping output `-`/`2` to don't-care.
/// Returns the cube plus whether any output position was a don't-care marker
/// (in which case the cube belongs in the DC set, with its DC outputs set).
fn parse_cube_line_dc(
    line: &str,
    num_inputs: usize,
    num_outputs: usize,
) -> Result<(Cube, bool), String> {
    let compact: Vec<char> = line.chars().filter(|c| !c.is_whitespace()).collect();
    if compact.len() != num_inputs + num_outputs {
        return Err(format!(
            "expected {} characters ({} inputs + {} outputs), found {}",
            num_inputs + num_outputs,
            num_inputs,
            num_outputs,
            compact.len()
        ));
    }
    let mut cube = Cube::universe(num_inputs, num_outputs);
    for (i, &ch) in compact[..num_inputs].iter().enumerate() {
        match ch {
            '1' => cube.set_literal(i, Phase::Positive),
            '0' => cube.set_literal(i, Phase::Negative),
            '-' | '2' | 'x' | 'X' => {}
            other => return Err(format!("bad input character {other:?}")),
        }
    }
    let mut any_dc = false;
    for (o, &ch) in compact[num_inputs..].iter().enumerate() {
        let member = match ch {
            '1' | '4' => true,
            '0' | '~' | '3' => false,
            '-' | '2' => {
                any_dc = true;
                true
            }
            other => return Err(format!("bad output character {other:?}")),
        };
        cube.set_output(o, member);
    }
    Ok((cube, any_dc))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
.i 3
.o 2
.ilb a b c
.ob f g
.p 3
1-0 10
011 01
--- 0-
.e
";

    #[test]
    fn parse_sample() {
        let pla = Pla::parse(SAMPLE).expect("valid pla");
        assert_eq!(pla.on_set.num_inputs(), 3);
        assert_eq!(pla.on_set.num_outputs(), 2);
        assert_eq!(pla.on_set.len(), 2);
        assert_eq!(pla.dc_set.len(), 1);
        assert_eq!(pla.input_labels, vec!["a", "b", "c"]);
        assert_eq!(pla.output_labels, vec!["f", "g"]);
    }

    #[test]
    fn roundtrip() {
        let pla = Pla::parse(SAMPLE).expect("valid pla");
        let text = pla.to_pla_string();
        let again = Pla::parse(&text).expect("roundtrip parses");
        assert_eq!(pla.on_set, again.on_set);
        assert_eq!(pla.dc_set, again.dc_set);
    }

    #[test]
    fn cube_before_header_is_error() {
        let err = Pla::parse("1-0 1\n").unwrap_err();
        assert!(err.to_string().contains("before .i"));
    }

    #[test]
    fn bad_length_is_error() {
        let err = Pla::parse(".i 3\n.o 1\n1- 1\n").unwrap_err();
        assert!(err.to_string().contains("expected 4 characters"));
    }

    #[test]
    fn bad_character_is_error() {
        let err = Pla::parse(".i 2\n.o 1\n1z 1\n").unwrap_err();
        assert!(err.to_string().contains("bad input character"));
    }

    #[test]
    fn unknown_directive_is_error() {
        let err = Pla::parse(".i 2\n.o 1\n.frobnicate\n").unwrap_err();
        assert!(err.to_string().contains("unsupported directive"));
    }

    #[test]
    fn whitespace_in_cube_lines_is_tolerated() {
        let pla = Pla::parse(".i 4\n.o 1\n1 0 - 1  1\n.e\n").expect("valid");
        assert_eq!(pla.on_set.len(), 1);
        assert_eq!(pla.on_set.cubes()[0].literal_count(), 3);
    }

    #[test]
    fn all_zero_output_cube_is_dropped() {
        let pla = Pla::parse(".i 2\n.o 1\n11 0\n.e\n").expect("valid");
        assert!(pla.on_set.is_empty());
    }
}
