//! `acmr convert` round-trip suite over the committed golden corpus:
//! every corpus trace converts text → binary → text byte-identically
//! (and binary → text → binary likewise), `acmr stats` reports the
//! right format version for both files with otherwise identical
//! output, and `acmr run --stream` replays the converted binary trace
//! to the byte-identical report of the text original. Piped into
//! `acmr run`, `acmr run --stream -` and `acmr opt` on stdin, both
//! dialects print identical output. CI runs this as its conversion
//! gate.

use acmr::cli::{cmd_convert, cmd_stats, dispatch, dispatch_io};

fn golden_trace_paths() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"));
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("golden corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("trace"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "golden corpus shrank: {}", paths.len());
    paths
}

fn argv(s: &[&str]) -> Vec<String> {
    s.iter().map(|x| x.to_string()).collect()
}

#[test]
fn golden_corpus_converts_losslessly_in_both_directions() {
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    for path in golden_trace_paths() {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read(&path).unwrap();
        let bin_path = tmp.join(format!("acmr-roundtrip-{pid}-{name}.bin"));
        let back_path = tmp.join(format!("acmr-roundtrip-{pid}-{name}.trace"));
        let bin2_path = tmp.join(format!("acmr-roundtrip-{pid}-{name}-2.bin"));

        // text → binary (default --to flips the format).
        let summary =
            cmd_convert(&argv(&[path.to_str().unwrap(), bin_path.to_str().unwrap()])).unwrap();
        assert!(summary.contains("ACMR-TRACE v2 (binary)"), "{summary}");

        // binary → text reproduces the committed file byte for byte.
        cmd_convert(&argv(&[
            bin_path.to_str().unwrap(),
            back_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&back_path).unwrap(),
            text,
            "{name}: binary → text must reproduce the original"
        );

        // …and text → binary again reproduces the binary byte for
        // byte (the binary encoding is canonical).
        cmd_convert(&argv(&[
            back_path.to_str().unwrap(),
            bin2_path.to_str().unwrap(),
            "--to",
            "binary",
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read(&bin2_path).unwrap(),
            std::fs::read(&bin_path).unwrap(),
            "{name}: text → binary must be canonical"
        );

        // stats: same numbers, different (correct) format line.
        let st = cmd_stats(&text).unwrap();
        let sb = cmd_stats(&std::fs::read(&bin_path).unwrap()).unwrap();
        assert!(
            st.contains("format          : ACMR-TRACE v1 (text)"),
            "{st}"
        );
        assert!(
            sb.contains("format          : ACMR-TRACE v2 (binary)"),
            "{sb}"
        );
        assert_eq!(
            st.lines().skip(1).collect::<Vec<_>>(),
            sb.lines().skip(1).collect::<Vec<_>>(),
            "{name}: stats must agree beyond the format line"
        );

        // Replay: the binary trace streams (zero-copy off the map) to
        // the byte-identical report of the text original.
        let stream = |p: &std::path::Path| {
            dispatch(
                &argv(&[
                    "run",
                    "--alg",
                    "aag-weighted",
                    "--seed",
                    "3",
                    "--format",
                    "json",
                    "--stream",
                    p.to_str().unwrap(),
                ]),
                "",
            )
            .unwrap()
        };
        assert_eq!(stream(&bin_path), stream(&path), "{name}: streamed report");

        for p in [bin_path, back_path, bin2_path] {
            std::fs::remove_file(p).unwrap();
        }
    }
}

#[test]
fn binary_traces_on_stdin_match_their_text_originals() {
    // `run`, `run --stream -` and `opt` read stdin as bytes and sniff
    // the magic, so a converted trace piped in prints exactly what its
    // text original prints.
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let run = [
        "run",
        "--alg",
        "aag-weighted",
        "--seed",
        "3",
        "--format",
        "json",
    ];
    let streamed = [&run[..], &["--stream", "-"]].concat();
    for path in golden_trace_paths() {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read(&path).unwrap();
        let bin_path = tmp.join(format!("acmr-stdin-{pid}-{name}.bin"));
        cmd_convert(&argv(&[path.to_str().unwrap(), bin_path.to_str().unwrap()])).unwrap();
        let bin = std::fs::read(&bin_path).unwrap();
        std::fs::remove_file(&bin_path).unwrap();
        for command in [&run[..], &streamed, &["opt"]] {
            let piped = |stdin: &[u8]| {
                dispatch_io(&argv(command), &mut &stdin[..])
                    .unwrap_or_else(|e| panic!("{name}: {command:?}: {e}"))
            };
            assert_eq!(piped(&bin), piped(&text), "{name}: {command:?}");
        }
    }
}

#[test]
fn in_place_conversion_is_refused_and_the_input_survives() {
    // `acmr convert t.bin t.bin` used to truncate the input via
    // File::create before a single record was read — destroying the
    // trace and "converting" an empty file. Now it must refuse with a
    // typed flag error, leave the input untouched, and catch spelling
    // variants of the same path (./x, symlinks) too.
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let src = golden_trace_paths().remove(0);
    let input = tmp.join(format!("acmr-inplace-{pid}.trace"));
    std::fs::copy(&src, &input).unwrap();
    let original = std::fs::read(&input).unwrap();
    let input_str = input.to_str().unwrap().to_string();

    // Same literal path.
    let e = cmd_convert(&argv(&[&input_str, &input_str])).unwrap_err();
    assert!(e.to_string().contains("over its input"), "{e}");
    assert_eq!(std::fs::read(&input).unwrap(), original, "input truncated");

    // Same file, different spelling: a `.`-segment alias.
    let dotted = tmp
        .join(".")
        .join(format!("acmr-inplace-{pid}.trace"))
        .to_str()
        .unwrap()
        .to_string();
    let e = cmd_convert(&argv(&[&input_str, &dotted, "--to", "text"])).unwrap_err();
    assert!(e.to_string().contains("over its input"), "{e}");
    assert_eq!(std::fs::read(&input).unwrap(), original, "input truncated");

    // A genuinely different output path still works.
    let out = tmp.join(format!("acmr-inplace-{pid}.bin"));
    cmd_convert(&argv(&[&input_str, out.to_str().unwrap()])).unwrap();
    assert_eq!(std::fs::read(&input).unwrap(), original);
    std::fs::remove_file(&input).unwrap();
    std::fs::remove_file(&out).unwrap();
}
