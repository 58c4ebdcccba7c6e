//! # fault — deterministic, seeded fault injection
//!
//! The IPU's bit-deterministic BSP execution is what makes *reproducible*
//! fault injection possible: a fault pinned to a (superstep, tile)
//! coordinate fires at exactly the same point of exactly the same
//! computation on every run, so every detection and recovery path in the
//! solver stack above can be held down by an ordinary regression test.
//!
//! A [`FaultPlan`] is a list of [`Fault`]s plus an optional seeded
//! generator. It is pure description — the graph engine owns the runtime
//! state (which faults have fired, the superstep counter) so that the plan
//! itself can be cloned into reports and replays.
//!
//! ## Spec grammar (`GRAPHENE_FAULTS`)
//!
//! `;`-separated entries, each either an explicit fault or a seeded-plan
//! parameter:
//!
//! ```text
//! flip@s<S>.t<T>:w<W>.b<B>    SRAM bit-flip: before compute superstep S,
//!                             flip bit B of float word W on tile T
//! xflip@s<S>.t<T>:w<W>.b<B>   exchange corruption: flip bit B of word W of
//!                             the first block-copy landing on tile T in the
//!                             exchange phase preceding superstep S
//! xdrop@s<S>.t<T>[:w<W>]      dropped exchange: skip the W-th block-copy
//!                             (default: first) landing on tile T in the
//!                             exchange phase preceding superstep S
//! stall@s<S>.t<T>:c<C>        tile T stalls for C extra cycles in compute
//!                             superstep S
//!
//! seed=<u64>                  seeded plan: derive faults deterministically
//! n=<count>                   ... this many of them (default 1)
//! classes=flip+xdrop+...      ... drawn from these classes (default all)
//! smax=<S>                    ... with supersteps in [1, S) (default 4096)
//! wmax=<W>                    ... with word indices in [0, W) (default 64)
//! ```
//!
//! Example: `GRAPHENE_FAULTS='flip@s40.t2:w7.b30;stall@s12.t0:c5000'`.
//!
//! Seeded entries and explicit entries may be mixed; resolution
//! ([`FaultPlan::resolve`]) is a pure function of (spec, tile count), so
//! the same spec replays bit-identically however the host runs the plan.

use crate::model::TileId;
use std::fmt;

/// What a single fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip bit `bit` of the `word`-th float element (in concatenated
    /// program-order operand order) resident on the tile, just before the
    /// compute superstep runs.
    SramBitFlip { word: u32, bit: u8 },
    /// Flip bit `bit` of the `word`-th element of the first block-copy
    /// landing on the tile in the preceding exchange phase (after the copy
    /// is applied — corrupted delivery).
    ExchangeBitFlip { word: u32, bit: u8 },
    /// Drop the `word`-th block-copy landing on the tile in the preceding
    /// exchange phase (the destination keeps its stale contents).
    ExchangeDrop { word: u32 },
    /// The tile takes `cycles` extra cycles in the compute superstep; under
    /// BSP every other tile waits at the sync.
    Stall { cycles: u64 },
}

impl FaultKind {
    /// Short class name, used in reports and the `classes=` spec field.
    pub fn class(&self) -> &'static str {
        match self {
            FaultKind::SramBitFlip { .. } => "flip",
            FaultKind::ExchangeBitFlip { .. } => "xflip",
            FaultKind::ExchangeDrop { .. } => "xdrop",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

/// One fault pinned to a (superstep, tile) coordinate.
///
/// Compute supersteps are numbered from 0 in engine execution order;
/// exchange faults use the superstep of the *following* compute step, so
/// `xdrop@s4` perturbs the exchange feeding compute superstep 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    pub superstep: u64,
    pub tile: TileId,
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::SramBitFlip { word, bit } => {
                write!(f, "flip@s{}.t{}:w{}.b{}", self.superstep, self.tile, word, bit)
            }
            FaultKind::ExchangeBitFlip { word, bit } => {
                write!(f, "xflip@s{}.t{}:w{}.b{}", self.superstep, self.tile, word, bit)
            }
            FaultKind::ExchangeDrop { word } => {
                write!(f, "xdrop@s{}.t{}:w{}", self.superstep, self.tile, word)
            }
            FaultKind::Stall { cycles } => {
                write!(f, "stall@s{}.t{}:c{}", self.superstep, self.tile, cycles)
            }
        }
    }
}

/// Parameters of the seeded (randomised but deterministic) part of a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeededFaults {
    pub seed: u64,
    pub count: u32,
    pub classes: Vec<&'static str>,
    pub superstep_max: u64,
    pub word_max: u32,
}

/// A deterministic fault plan: explicit faults plus an optional seeded
/// generator, resolved against a concrete tile count at engine load time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
    pub seeded: Option<SeededFaults>,
    /// The spec string this plan was parsed from (for reports), if any.
    pub spec: Option<String>,
}

const ALL_CLASSES: [&str; 4] = ["flip", "xflip", "xdrop", "stall"];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse::<T>().map_err(|_| format!("fault spec: bad {what} `{s}`"))
}

/// Parse one `s<S>.t<T>` coordinate pair.
fn parse_coord(s: &str, entry: &str) -> Result<(u64, TileId), String> {
    let (ss, ts) = s
        .split_once('.')
        .ok_or_else(|| format!("fault spec: `{entry}` wants s<S>.t<T> after `@`"))?;
    let ss = ss
        .strip_prefix('s')
        .ok_or_else(|| format!("fault spec: `{entry}` superstep must start with `s`"))?;
    let ts = ts
        .strip_prefix('t')
        .ok_or_else(|| format!("fault spec: `{entry}` tile must start with `t`"))?;
    Ok((parse_num(ss, "superstep")?, parse_num::<usize>(ts, "tile")?))
}

/// Parse `w<W>.b<B>`.
fn parse_word_bit(s: &str, entry: &str) -> Result<(u32, u8), String> {
    let (ws, bs) = s
        .split_once('.')
        .ok_or_else(|| format!("fault spec: `{entry}` wants w<W>.b<B> after `:`"))?;
    let ws = ws
        .strip_prefix('w')
        .ok_or_else(|| format!("fault spec: `{entry}` word must start with `w`"))?;
    let bs = bs
        .strip_prefix('b')
        .ok_or_else(|| format!("fault spec: `{entry}` bit must start with `b`"))?;
    let bit: u8 = parse_num(bs, "bit")?;
    if bit > 31 {
        return Err(format!("fault spec: `{entry}` bit {bit} out of range (0..=31)"));
    }
    Ok((parse_num(ws, "word")?, bit))
}

impl FaultPlan {
    /// Parse a spec string (the `GRAPHENE_FAULTS` grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan { spec: Some(spec.to_string()), ..FaultPlan::default() };
        let mut seed: Option<u64> = None;
        let mut count: u32 = 1;
        let mut classes: Vec<&'static str> = Vec::new();
        let mut smax: u64 = 4096;
        let mut wmax: u32 = 64;
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some((key, val)) = entry.split_once('=') {
                match key.trim() {
                    "seed" => seed = Some(parse_num(val, "seed")?),
                    "n" => count = parse_num(val, "n")?,
                    "smax" => smax = parse_num(val, "smax")?,
                    "wmax" => wmax = parse_num(val, "wmax")?,
                    "classes" => {
                        for c in val.split('+').map(str::trim) {
                            let known = ALL_CLASSES
                                .iter()
                                .find(|k| **k == c)
                                .ok_or_else(|| format!("fault spec: unknown class `{c}`"))?;
                            classes.push(known);
                        }
                    }
                    other => return Err(format!("fault spec: unknown key `{other}`")),
                }
                continue;
            }
            let (head, rest) =
                entry.split_once('@').ok_or_else(|| format!("fault spec: `{entry}` has no `@`"))?;
            let (coord, tail) = match rest.split_once(':') {
                Some((c, t)) => (c, Some(t)),
                None => (rest, None),
            };
            let (superstep, tile) = parse_coord(coord, entry)?;
            let kind = match head {
                "flip" | "xflip" => {
                    let tail =
                        tail.ok_or_else(|| format!("fault spec: `{entry}` wants :w<W>.b<B>"))?;
                    let (word, bit) = parse_word_bit(tail, entry)?;
                    if head == "flip" {
                        FaultKind::SramBitFlip { word, bit }
                    } else {
                        FaultKind::ExchangeBitFlip { word, bit }
                    }
                }
                "xdrop" => {
                    let word = match tail {
                        None => 0,
                        Some(t) => {
                            let t = t
                                .strip_prefix('w')
                                .ok_or_else(|| format!("fault spec: `{entry}` wants :w<W>"))?;
                            parse_num(t, "word")?
                        }
                    };
                    FaultKind::ExchangeDrop { word }
                }
                "stall" => {
                    let t = tail
                        .and_then(|t| t.strip_prefix('c'))
                        .ok_or_else(|| format!("fault spec: `{entry}` wants :c<C>"))?;
                    FaultKind::Stall { cycles: parse_num(t, "cycles")? }
                }
                other => return Err(format!("fault spec: unknown fault class `{other}`")),
            };
            plan.faults.push(Fault { superstep, tile, kind });
        }
        if let Some(seed) = seed {
            if classes.is_empty() {
                classes = ALL_CLASSES.to_vec();
            }
            plan.seeded = Some(SeededFaults {
                seed,
                count,
                classes,
                superstep_max: smax.max(2),
                word_max: wmax.max(1),
            });
        }
        if plan.faults.is_empty() && plan.seeded.is_none() {
            return Err("fault spec: empty plan".to_string());
        }
        Ok(plan)
    }

    /// Resolve the plan against a concrete tile count: explicit faults are
    /// kept as-is (tiles clamped into range), seeded faults are derived by
    /// a splitmix64 stream — a pure function of (spec, `num_tiles`), hence
    /// bit-identical across engine options and runs.
    pub fn resolve(&self, num_tiles: usize) -> Vec<Fault> {
        let num_tiles = num_tiles.max(1);
        let mut out: Vec<Fault> =
            self.faults.iter().map(|f| Fault { tile: f.tile % num_tiles, ..*f }).collect();
        if let Some(seeded) = &self.seeded {
            let mut state = seeded.seed ^ 0x6a09_e667_f3bc_c908;
            for _ in 0..seeded.count {
                let class =
                    seeded.classes[(splitmix64(&mut state) % seeded.classes.len() as u64) as usize];
                // Superstep 0 is usually setup; start at 1 so seeded faults
                // land inside the solve loop more often.
                let superstep = 1 + splitmix64(&mut state) % (seeded.superstep_max - 1);
                let tile = (splitmix64(&mut state) % num_tiles as u64) as usize;
                let word = (splitmix64(&mut state) % seeded.word_max as u64) as u32;
                // Bits 0..=30: perturb mantissa/exponent, not only the sign.
                let bit = (splitmix64(&mut state) % 31) as u8;
                let kind = match class {
                    "flip" => FaultKind::SramBitFlip { word, bit },
                    "xflip" => FaultKind::ExchangeBitFlip { word, bit },
                    "xdrop" => FaultKind::ExchangeDrop { word },
                    "stall" => FaultKind::Stall { cycles: 1000 + splitmix64(&mut state) % 100_000 },
                    _ => unreachable!("classes are validated at parse time"),
                };
                out.push(Fault { superstep, tile, kind });
            }
        }
        out
    }
}

/// A fault that actually fired, as recorded by the engine for reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    pub superstep: u64,
    pub tile: TileId,
    /// Fault class (`flip` / `xflip` / `xdrop` / `stall`).
    pub class: String,
    /// Human-readable detail: target tensor/element, old/new bits, cycles.
    pub detail: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_explicit_entries() {
        let p = FaultPlan::parse("flip@s40.t2:w7.b30; stall@s12.t0:c5000").unwrap();
        assert_eq!(p.faults.len(), 2);
        assert_eq!(
            p.faults[0],
            Fault { superstep: 40, tile: 2, kind: FaultKind::SramBitFlip { word: 7, bit: 30 } }
        );
        assert_eq!(
            p.faults[1],
            Fault { superstep: 12, tile: 0, kind: FaultKind::Stall { cycles: 5000 } }
        );
        assert!(p.seeded.is_none());
    }

    #[test]
    fn parses_exchange_entries() {
        let p = FaultPlan::parse("xflip@s4.t1:w2.b5;xdrop@s9.t3;xdrop@s9.t4:w2").unwrap();
        assert_eq!(p.faults[0].kind, FaultKind::ExchangeBitFlip { word: 2, bit: 5 });
        assert_eq!(p.faults[1].kind, FaultKind::ExchangeDrop { word: 0 });
        assert_eq!(p.faults[2].kind, FaultKind::ExchangeDrop { word: 2 });
    }

    #[test]
    fn parses_seeded_plan() {
        let p = FaultPlan::parse("seed=42;n=3;classes=flip+xdrop;smax=512").unwrap();
        let s = p.seeded.as_ref().unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.count, 3);
        assert_eq!(s.classes, vec!["flip", "xdrop"]);
        assert_eq!(s.superstep_max, 512);
        let faults = p.resolve(4);
        assert_eq!(faults.len(), 3);
        for f in &faults {
            assert!(f.tile < 4);
            assert!((1..512).contains(&f.superstep));
            assert!(matches!(
                f.kind,
                FaultKind::SramBitFlip { .. } | FaultKind::ExchangeDrop { .. }
            ));
        }
        // Determinism: resolving twice gives the same faults.
        assert_eq!(faults, p.resolve(4));
        // ... and a different seed gives a different plan.
        let q = FaultPlan::parse("seed=43;n=3;classes=flip+xdrop;smax=512").unwrap();
        assert_ne!(faults, q.resolve(4));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "flip@s1.t0",          // missing :w.b
            "flip@s1.t0:w1.b32",   // bit out of range
            "flip@t0.s1:w1.b3",    // coords swapped
            "warp@s1.t0:c3",       // unknown class
            "seed=42;classes=bad", // unknown seeded class
            "n=3",                 // seeded params without seed, no faults
            "stall@s1.t0:w5",      // stall wants c<C>
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_round_trips() {
        let spec = "flip@s40.t2:w7.b30;xflip@s4.t1:w2.b5;xdrop@s9.t3:w0;stall@s12.t0:c5000";
        let p = FaultPlan::parse(spec).unwrap();
        let shown: Vec<String> = p.faults.iter().map(|f| f.to_string()).collect();
        assert_eq!(shown.join(";"), spec);
        let again = FaultPlan::parse(&shown.join(";")).unwrap();
        assert_eq!(again.faults, p.faults);
    }

    #[test]
    fn explicit_tiles_clamp_to_range() {
        let p = FaultPlan::parse("flip@s1.t7:w0.b1").unwrap();
        assert_eq!(p.resolve(4)[0].tile, 3); // 7 % 4
    }
}
