//! N-queens solution counting: irregular async-finish parallelism.
//!
//! Each partial placement `async`es one task per safe next-row column into
//! the enclosing finish scope using [`Scope::fork`] — fan-in degree varies
//! per node, the exact "unbounded in-degree" workload the in-counter is
//! built for. Solutions are tallied in a shared atomic.
//!
//! ```sh
//! cargo run --release --example nqueens [n] [workers]
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dynsnzi::prelude::*;

#[derive(Clone)]
struct Board {
    cols: u32,
    diag1: u64,
    diag2: u64,
    row: u32,
    n: u32,
}

impl Board {
    fn new(n: u32) -> Board {
        Board { cols: 0, diag1: 0, diag2: 0, row: 0, n }
    }

    fn safe(&self, col: u32) -> bool {
        let d1 = self.row + col;
        let d2 = self.row + self.n - 1 - col;
        self.cols & (1 << col) == 0 && self.diag1 & (1 << d1) == 0 && self.diag2 & (1 << d2) == 0
    }

    fn place(&self, col: u32) -> Board {
        let d1 = self.row + col;
        let d2 = self.row + self.n - 1 - col;
        Board {
            cols: self.cols | (1 << col),
            diag1: self.diag1 | (1 << d1),
            diag2: self.diag2 | (1 << d2),
            row: self.row + 1,
            n: self.n,
        }
    }
}

fn count_seq(board: &Board) -> u64 {
    if board.row == board.n {
        return 1;
    }
    let mut total = 0;
    for col in 0..board.n {
        if board.safe(col) {
            total += count_seq(&board.place(col));
        }
    }
    total
}

fn solve<C: CounterFamily>(ctx: Ctx<'_, C>, board: Board, solutions: Arc<AtomicU64>) {
    // Below this depth, sequential search is cheaper than task creation.
    const PAR_ROWS: u32 = 3;
    if board.row >= PAR_ROWS || board.row == board.n {
        solutions.fetch_add(count_seq(&board), Ordering::Relaxed);
        return;
    }
    let mut scope = ctx.into_scope();
    for col in 0..board.n {
        if board.safe(col) {
            let next = board.place(col);
            let s = Arc::clone(&solutions);
            scope.fork(move |c| solve(c, next, s));
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(12);
    let workers: usize =
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(dynsnzi::sched::num_cpus);
    assert!(n <= 16, "bitboards above hold n <= 16");

    let t0 = Instant::now();
    let expected = count_seq(&Board::new(n));
    let seq = t0.elapsed();

    let solutions = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&solutions);
    let t0 = Instant::now();
    Runtime::new().workers(workers).run(move |ctx| solve(ctx, Board::new(n), s));
    let par = t0.elapsed();

    let got = solutions.load(Ordering::Relaxed);
    println!("{n}-queens: {got} solutions");
    println!("sequential: {seq:?}");
    println!(
        "parallel  : {par:?}  ({workers} workers, speedup {:.2}x)",
        seq.as_secs_f64() / par.as_secs_f64()
    );
    assert_eq!(got, expected);
}
