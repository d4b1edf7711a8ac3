//! Experiments A-EXPLAIN and A-SPEECH: result explanation and the simulated
//! accessibility loop, end to end.

use datastore::sample::movie_database;
use talkback::{SpeechRecognizer, Talkback, TextToSpeech};
use talkback_tests::mentions;

#[test]
fn a_explain_empty_result_names_the_culprit_predicate() {
    let system = Talkback::new(movie_database());
    let explanation = system
        .explain_result(
            "select m.title from MOVIES m, GENRE g where m.id = g.mid and g.genre = 'western'",
        )
        .unwrap();
    assert_eq!(explanation.rows, 0);
    assert!(mentions(&explanation.narrative, "no results"));
    assert!(mentions(&explanation.narrative, "western"));
}

#[test]
fn a_explain_healthy_and_large_results() {
    let system = Talkback::new(movie_database());
    let ok = system
        .explain_result("select m.title from MOVIES m where m.year >= 2004")
        .unwrap();
    assert!(ok.rows > 0);
    assert!(mentions(&ok.narrative, &format!("{} result", ok.rows)));
}

#[test]
fn a_speech_round_trip_produces_audio_chunks_and_answer_text() {
    let system = Talkback::new(movie_database());
    let (recognition, narrative, chunks) = system
        .voice_answer(
            "what has woody allen directed",
            "select m.title from MOVIES m, DIRECTED r, DIRECTOR d \
             where m.id = r.mid and r.did = d.id and d.name = 'Woody Allen'",
            &SpeechRecognizer::perfect(),
            &TextToSpeech::default(),
        )
        .unwrap();
    assert_eq!(recognition.corrupted_words, 0);
    assert!(mentions(&narrative, "Match Point"));
    assert!(mentions(&narrative, "3 answers"));
    assert!(!chunks.is_empty());
    assert!(chunks.iter().all(|c| c.duration_ms > 0));
}

#[test]
fn a_speech_noisy_channel_reports_reduced_confidence() {
    let system = Talkback::new(movie_database());
    let noisy = SpeechRecognizer::new(0.6, 99);
    let (recognition, _narrative, _chunks) = system
        .voice_answer(
            "please find every single movie with brad pitt in it",
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt'",
            &noisy,
            &TextToSpeech::default(),
        )
        .unwrap();
    assert!(recognition.confidence < 1.0);
    assert!(recognition.corrupted_words > 0);
}

/// A large answer with no join to blame counts the conditions of the
/// flattened statement; served from a plan-cache template, which keeps no
/// statement, `explain_result` must count the same ones a fresh plan does.
#[test]
fn a_explain_large_result_from_a_template_counts_its_conditions() {
    use datastore::sample::{scaled_movie_database, ScaleConfig};
    use datastore::CacheStatus;
    let db = || {
        scaled_movie_database(ScaleConfig {
            movies: 1000,
            ..ScaleConfig::default()
        })
    };
    let system = Talkback::new(db());
    let sql = |genre: &str| format!("select g.mid from GENRE g where g.genre = '{genre}'");
    system.explain_result(&sql("drama")).unwrap();
    let cached = system.explain_result(&sql("action")).unwrap();
    let entry = system.database().obs().journal().last().unwrap();
    assert_eq!(entry.cache, CacheStatus::Hit);
    let query = sqlparse::parse_query(&sql("action")).unwrap();
    let fresh = talkback::explain_result(&db(), system.queries().lexicon(), &query).unwrap();
    let said =
        |e: &talkback::ResultExplanation| (e.rows, e.narrative.clone(), e.predicate_notes.clone());
    assert_eq!(said(&cached), said(&fresh));
    assert!(cached.rows > 100, "{}", cached.narrative);
    assert!(
        cached.narrative.contains("It only applies 1 condition;"),
        "{}",
        cached.narrative
    );
}

/// A constant with irregular spacing is said as the user wrote it wherever
/// the narration quotes SQL in backquotes: `'Brad  Pitt'` (two spaces)
/// matches no actor, and the condition blamed for the empty answer must be
/// the one in the query, not the one naming Brad Pitt.
#[test]
fn a_explain_quotes_constants_with_irregular_spacing_as_written() {
    let system = Talkback::new(movie_database());
    for constant in ["'Brad  Pitt'", "'x , y'", "'a ( b )'"] {
        let condition = format!("a.name = {constant}");
        let sql = format!(
            "select m.title from MOVIES m, CAST c, ACTOR a \
             where m.id = c.mid and c.aid = a.id and {condition}"
        );
        let quoted = format!("`{condition}`");
        let result = system.explain_result(&sql).unwrap();
        assert_eq!(result.rows, 0, "{sql}");
        assert!(result.narrative.contains(&quoted), "{}", result.narrative);
        for form in ["explain", "explain analyze"] {
            let plan = system.explain_plan(&format!("{form} {sql}")).unwrap();
            assert!(plan.tree.contains(&condition), "{}", plan.tree);
            assert!(plan.narration.contains(&quoted), "{}", plan.narration);
        }
    }
}
