// Fixture: a clock read inside decision logic makes results
// timing-dependent.
pub fn elapsed_guess() -> f64 {
    let started = std::time::Instant::now();
    std::hint::black_box(());
    started.elapsed().as_secs_f64()
}

// CPU-count reads: each of these calls asks how many CPUs the machine has,
// and the two iterators start one thread per CPU.
pub fn per_cpu_totals(values: &mut [f64]) -> usize {
    values.par_iter_mut().for_each(|v| *v *= 2.0);
    let total: f64 = values.par_iter().sum();
    std::hint::black_box(total);
    rayon::current_num_threads()
}
