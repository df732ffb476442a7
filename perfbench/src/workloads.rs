//! Seeded workload generators. Each returns MiniF source text only: the
//! pipeline under test parses what it is given, like `gnt-lint` would.

use gnt_core::{random_program, sized_program, GenConfig};

/// Files in the `corpus` workload.
pub const CORPUS_FILES: usize = 256;
/// Programs in the `pressure` workload; each is planned at every bound.
pub const PRESSURE_PROGRAMS: usize = 24;
/// The in-flight bounds each `pressure` program is planned under.
pub const PRESSURE_BOUNDS: [Option<usize>; 3] = [None, Some(4), Some(1)];
/// The distributed arrays of the `pressure` programs.
pub const PRESSURE_ARRAYS: [&str; 8] = ["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"];
/// Statement targets of the `wide` scaling ladder (`sized_program`).
pub const WIDE_RUNGS: [usize; 3] = [200, 800, 3200];
/// Loop-nest depths of the `deep` scaling ladder.
pub const DEEP_RUNGS: [usize; 3] = [64, 128, 256];

/// One generated input file.
#[derive(Clone, Debug)]
pub struct File {
    /// Display name, unique within the workload.
    pub name: String,
    /// MiniF source.
    pub text: String,
    /// The seed this file was generated from (reported with findings).
    pub seed: u64,
    /// Scaling ladder the file belongs to (`None` outside `scaling`).
    pub ladder: Option<Ladder>,
}

/// The two shapes of the `scaling` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ladder {
    /// `sized_program`: many shallow loops side by side.
    Wide,
    /// One loop nest, deeper at each rung.
    Deep,
}

/// SplitMix64: a tiny seeded generator, so the inputs depend on nothing
/// but the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seed of entry `index` of a workload generated from `seed`.
fn child_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Rewrites every opaque scalar assignment `sN = ...` of a pretty-printed
/// program into distributed-array traffic: a gather `... = x(a(q))`, an
/// owner write `x(q) = ...` or a shifted read `... = y(q+k)`, where `q`
/// is the innermost enclosing loop variable (the scalar `q` outside
/// loops). Control flow, and so the CFG shape, is left as it is.
pub fn inject_traffic(text: &str, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut loops: Vec<String> = Vec::new();
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        let body = line.trim_start();
        let indent = &line[..line.len() - body.len()];
        // Labels prefix statements: `77 do k = 1, N`, `99 continue`.
        let stmt = body
            .trim_start_matches(|c: char| c.is_ascii_digit())
            .trim_start();
        if let Some(rest) = stmt.strip_prefix("do ") {
            let var = rest.split_whitespace().next().unwrap_or("q");
            loops.push(var.to_string());
        } else if stmt == "enddo" {
            loops.pop();
        }
        let opaque = body.len() > 1
            && body.starts_with('s')
            && body[1..]
                .trim_end_matches(" = ...")
                .bytes()
                .all(|b| b.is_ascii_digit())
            && body.ends_with(" = ...");
        if !opaque {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        let q = loops.last().map_or("q", String::as_str);
        out.push_str(indent);
        match rng.below(3) {
            0 => out.push_str(&format!("... = x(a({q}))")),
            1 => out.push_str(&format!("x({q}) = ...")),
            _ => out.push_str(&format!("... = y({q}+{})", 1 + rng.below(3))),
        }
        out.push('\n');
    }
    out
}

/// Candidates drawn per `corpus` file.
const CORPUS_DRAWS: usize = 8;
/// Longest `corpus` file, in lines (about 220 CFG nodes).
const CORPUS_MAX_LINES: usize = 240;

/// `corpus`: [`CORPUS_FILES`] distinct default-shaped `random_program`s
/// (depth ≤ 3, `if … goto` out of loops kept) with array traffic
/// injected, shuffled.
///
/// Drawn as a systematic sample: [`CORPUS_DRAWS`] candidates per file
/// are sorted by length and every [`CORPUS_DRAWS`]th one is kept, so
/// each seed gives new programs with the same spread of sizes (the
/// metrics then move with the code, not with the draw). Candidates with
/// no opaque statement to carry traffic, longer than
/// [`CORPUS_MAX_LINES`], or repeating an earlier text are skipped: every
/// file communicates, and no two are the same, as in a real source tree
/// where `gnt-lint` never sees one text twice.
pub fn corpus(seed: u64) -> Vec<File> {
    let mut seen = std::collections::HashSet::new();
    let mut pool: Vec<(usize, String, u64)> = Vec::with_capacity(CORPUS_FILES * CORPUS_DRAWS);
    let mut draw = 0;
    while pool.len() < CORPUS_FILES * CORPUS_DRAWS {
        let file_seed = child_seed(seed, draw);
        draw += 1;
        let base = gnt_ir::pretty(&random_program(file_seed, &GenConfig::default()));
        let text = inject_traffic(&base, file_seed);
        let lines = text.lines().count();
        if text != base && lines <= CORPUS_MAX_LINES && seen.insert(text.clone()) {
            pool.push((lines, text, file_seed));
        }
    }
    pool.sort();
    let mut picked: Vec<(String, u64)> = pool
        .into_iter()
        .skip(CORPUS_DRAWS / 2)
        .step_by(CORPUS_DRAWS)
        .map(|(_, text, file_seed)| (text, file_seed))
        .collect();
    let mut rng = Rng::new(seed);
    for k in (1..picked.len()).rev() {
        picked.swap(k, rng.below(k + 1));
    }
    picked
        .into_iter()
        .enumerate()
        .map(|(i, (text, file_seed))| File {
            name: format!("corpus/{i:03}.minif"),
            text,
            seed: file_seed,
            ladder: None,
        })
        .collect()
}

/// `scaling`: the `wide` ladder (`sized_program` at [`WIDE_RUNGS`]
/// statements, its fillers turned into traffic) and the `deep` ladder (a
/// `do` nest per [`DEEP_RUNGS`] depth with a write `y(iD)` at each level
/// and one gather at the bottom).
pub fn scaling(seed: u64) -> Vec<File> {
    let mut files = Vec::new();
    for (i, &stmts) in WIDE_RUNGS.iter().enumerate() {
        let file_seed = child_seed(seed, i);
        files.push(File {
            name: format!("wide/{stmts}.minif"),
            text: inject_traffic(&gnt_ir::pretty(&sized_program(stmts)), file_seed),
            seed: file_seed,
            ladder: Some(Ladder::Wide),
        });
    }
    for (i, &depth) in DEEP_RUNGS.iter().enumerate() {
        let file_seed = child_seed(seed, WIDE_RUNGS.len() + i);
        files.push(File {
            name: format!("deep/{depth}.minif"),
            text: deep_nest(depth, file_seed),
            seed: file_seed,
            ladder: Some(Ladder::Deep),
        });
    }
    files
}

/// A `do` nest of `depth` loops bounded by `L`; the gather at the bottom
/// is shifted by a seeded offset.
fn deep_nest(depth: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut text = String::new();
    for d in 1..=depth {
        text.push_str(&format!("do i{d} = 1, L\ny(i{d}) = ...\n"));
    }
    text.push_str(&format!("... = x(a(i{depth}+{}))\n", rng.below(4)));
    for _ in 0..depth {
        text.push_str("enddo\n");
    }
    text
}

/// `pressure`: [`PRESSURE_PROGRAMS`] programs of 16 loops reading 400
/// shifted sections `xK(i+c)` drawn from a universe of distinct sections
/// over the 8 [`PRESSURE_ARRAYS`], with conditional owner writes in every
/// loop and every fourth loop under an `if`/`else`. The universe sizes
/// step evenly from 64 to 256 across the programs; the seed draws what
/// each program reads and writes.
pub fn pressure(seed: u64) -> Vec<File> {
    (0..PRESSURE_PROGRAMS)
        .map(|i| {
            let file_seed = child_seed(seed, i);
            let offsets = 8 + i * 24 / (PRESSURE_PROGRAMS - 1);
            File {
                name: format!("pressure/{i:02}.minif"),
                text: pressure_program(offsets, file_seed),
                seed: file_seed,
                ladder: None,
            }
        })
        .collect()
}

/// One `pressure` program over `offsets` shifts of each array.
fn pressure_program(offsets: usize, seed: u64) -> String {
    const BLOCKS: usize = 16;
    const READS: usize = 400;
    let mut rng = Rng::new(seed);
    let arrays = PRESSURE_ARRAYS.len();
    let universe = arrays * offsets;
    // Every section is read at least once; the rest are drawn at random.
    let mut reads: Vec<usize> = (0..universe).collect();
    for k in (1..reads.len()).rev() {
        reads.swap(k, rng.below(k + 1));
    }
    reads.extend((universe..READS.max(universe)).map(|_| rng.below(universe)));
    let per_block = reads.len().div_ceil(BLOCKS);
    let mut text = String::new();
    for (b, chunk) in reads.chunks(per_block).enumerate() {
        let var = format!("i{b}");
        let branch = b % 4 == 3;
        if branch {
            text.push_str("if t then\n");
        }
        text.push_str(&format!("do {var} = 1, N\n"));
        for &section in chunk {
            let (array, offset) = (section % arrays, section / arrays);
            text.push_str(&format!(
                "... = {}({var}+{offset})\n",
                PRESSURE_ARRAYS[array]
            ));
        }
        for _ in 0..2 {
            let array = PRESSURE_ARRAYS[rng.below(arrays)];
            text.push_str(&format!("if t then\n{array}({var}) = ...\nendif\n"));
        }
        text.push_str("enddo\n");
        if branch {
            let other = PRESSURE_ARRAYS[rng.below(arrays)];
            text.push_str(&format!(
                "else\ndo j{b} = 1, N\n... = {other}(j{b}+{})\nenddo\nendif\n",
                rng.below(offsets)
            ));
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnt_comm::{analyze, CommConfig};

    fn fnv(files: &[File]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for f in files {
            for b in f.name.bytes().chain(f.text.bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        h
    }

    #[test]
    fn workloads_are_pinned_per_seed() {
        // Regenerate these pins only together with a deliberate change of
        // the workloads; the benchmark's baselines depend on them.
        assert_eq!(fnv(&corpus(1)), fnv(&corpus(1)));
        assert_ne!(fnv(&corpus(1)), fnv(&corpus(2)));
        assert_ne!(fnv(&pressure(1)), fnv(&pressure(2)));
        assert_ne!(fnv(&scaling(1)), fnv(&scaling(2)));
        let pins = [fnv(&corpus(1)), fnv(&pressure(1)), fnv(&scaling(1))];
        assert_eq!(pins, PINS, "workload text drifted: {pins:#x?}");
    }

    const PINS: [u64; 3] = [
        0x3331_35b3_5c3e_5411,
        0xb140_85c4_5dcd_805f,
        0xab86_1d2b_feeb_1cd1,
    ];

    #[test]
    fn every_corpus_and_pressure_file_has_communication() {
        for seed in [1, 2] {
            for f in corpus(seed) {
                let program = gnt_ir::parse(&f.text).expect("corpus parses");
                let distributed = gnt_analyze::driver::detect_distributed(&program);
                let refs: Vec<&str> = distributed.iter().map(String::as_str).collect();
                let a = analyze(&program, &CommConfig::distributed(&refs)).expect("analyze");
                assert!(!a.universe.is_empty(), "{} has no comm items", f.name);
            }
            for f in pressure(seed) {
                let program = gnt_ir::parse(&f.text).expect("pressure parses");
                let a =
                    analyze(&program, &CommConfig::distributed(&PRESSURE_ARRAYS)).expect("analyze");
                assert!(
                    (64..=260).contains(&a.universe.len()),
                    "{} has {} items",
                    f.name,
                    a.universe.len()
                );
            }
        }
    }

    #[test]
    fn injection_keeps_control_flow_and_uses_loop_variables() {
        let text = "do i3 = 1, N\n  s4 = ...\nenddo\n77 do k = 1, N\n  if t goto 99\nenddo\ns5 = ...\n99 continue\n";
        let out = inject_traffic(text, 5);
        assert_eq!(out.lines().count(), text.lines().count());
        let stmt = out.lines().nth(1).expect("line 2").trim();
        assert!(stmt.contains("(i3") || stmt.contains("(a(i3"), "{stmt}");
        assert!(out.lines().nth(6).expect("line 7").contains('q'));
        assert!(!out.contains("s4") && !out.contains("s5"));
    }
}
