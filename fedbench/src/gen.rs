//! Seeded input generation: a small deterministic RNG and the star-schema
//! data set. The same `--seed` always yields the same rows, literals and
//! class order; another seed changes the *data*, never the shape (row
//! counts, rows per join code, rows per group stay fixed so the cost
//! counters of two seeds are comparable).

/// SplitMix64 — enough randomness for permutations and literals, and no
/// dependency on the repository's `rand` shim.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<i64> {
        let mut p: Vec<i64> = (0..n as i64).collect();
        self.shuffle(&mut p);
        p
    }
}

/// Fact rows of the star workloads.
pub const FACT_ROWS: usize = 20_000;
/// Dimension rows (= distinct join codes); every code owns exactly
/// `FACT_ROWS / DIM_ROWS` fact rows.
pub const DIM_ROWS: usize = 500;
/// Groups; every group owns exactly `FACT_ROWS / GROUPS` fact rows.
pub const GROUPS: usize = 10;
/// Dimension rows a `join_ship` window selects (`w` is a permutation of
/// `0..DIM_ROWS`, so the window always hits exactly this many codes).
pub const JOIN_WINDOW: usize = 25;

/// One generated `db0.fact` row. The mutable column `u` is not stored: it
/// starts at 0 and the reference model derives it from the number of
/// `fact_update`s applied to the row's group.
#[derive(Debug, Clone)]
pub struct FactRow {
    pub k: i64,
    pub g: i64,
    pub v: i64,
    pub s: String,
}

/// The generated star data set.
#[derive(Debug, Clone)]
pub struct StarData {
    pub fact: Vec<FactRow>,
    /// `dim[code] = w`.
    pub dim_w: Vec<i64>,
}

impl StarData {
    pub fn generate(seed: u64) -> StarData {
        let mut rng = Rng::new(seed ^ 0x0053_5441_5244);
        let codes = rng.permutation(DIM_ROWS);
        let v = rng.permutation(FACT_ROWS);
        let alphabet = b"abcdefghijklmnopqrstuvwxyz";
        let fact = (0..FACT_ROWS)
            .map(|i| {
                let s: String = (0..16)
                    .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char)
                    .collect();
                FactRow { k: codes[i % DIM_ROWS], g: (i % GROUPS) as i64, v: v[i], s }
            })
            .collect();
        StarData { fact, dim_w: rng.permutation(DIM_ROWS) }
    }
}
