use spinbench::stats::{percentile, tail_percentile, Summary};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
    assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap().median, 2.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let s = Summary::of(&[2.0, 1.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    // statistics.quantiles([1, 3, 5], n=4) == [1.0, 3.0, 5.0]
    let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
    assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 5.0));
    let one = Summary::of(&[7.0]).unwrap();
    assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
    assert_eq!(Summary::of(&[]), None);
}

#[test]
fn spread_is_the_interquartile_distance_over_the_median() {
    let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
    assert!((s.spread() - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(1_000_000), Some(99.9));
}

#[test]
fn percentile_uses_the_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
}
