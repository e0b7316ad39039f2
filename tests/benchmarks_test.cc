// Parameterized end-to-end test over all 28 benchmarks of Table 2: the
// golden program runs, synthesis from a curated example succeeds, and the
// synthesized program agrees with the golden program on a larger validation
// instance (the paper's success criterion). A second suite pins the search
// trajectory: the exact iterations and program text of 27 of them.

#include <gtest/gtest.h>

#include <cstdlib>

#include "api/session.h"
#include "testing.h"
#include "workload/benchmarks.h"

namespace dynamite {
namespace {

using workload::AllBenchmarks;
using workload::Benchmark;

/// Wall-clock budget per synthesis run. Sanitizer builds run 10-30x slower
/// than Release, so CI overrides the default via DYNAMITE_SYNTH_TEST_TIMEOUT
/// (seconds) rather than failing on an environment-speed artifact.
double SynthTestTimeoutSeconds() {
  const char* env = std::getenv("DYNAMITE_SYNTH_TEST_TIMEOUT");
  if (env != nullptr) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 120;
}

class BenchmarkTest : public ::testing::TestWithParam<std::string> {
 protected:
  const Benchmark& bench() const { return *workload::FindBenchmark(GetParam()); }
};

TEST_P(BenchmarkTest, GoldenProgramRuns) {
  const Benchmark& b = bench();
  ASSERT_OK(b.golden.Validate());
  ASSERT_OK_AND_ASSIGN(RecordForest source,
                       workload::GenerateSource(b, /*seed=*/11, /*scale=*/5));
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(b.source, b.target));
  MigrationStats stats;
  ASSERT_OK_AND_ASSIGN(RecordForest target, session.Migrate(b.golden, source, &stats));
  EXPECT_GT(target.TotalRecords(), 0u) << b.name;
  EXPECT_GT(stats.source_facts, 0u);
  EXPECT_GT(stats.target_facts, 0u);
}

TEST_P(BenchmarkTest, SynthesizesCorrectProgram) {
  const Benchmark& b = bench();
  ASSERT_OK_AND_ASSIGN(Example example,
                       workload::MakeExample(b, b.example_seed, b.example_scale));
  SessionOptions options;
  options.default_budget_seconds = SynthTestTimeoutSeconds();
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(b.source, b.target, options));
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, session.Synthesize(example));
  EXPECT_EQ(result.program.rules.size(), b.target.TopLevelRecords().size());
  // Correctness = observational equivalence with the golden program on a
  // larger validation instance.
  ASSERT_OK_AND_ASSIGN(bool agrees, workload::AgreesWithGolden(b, result.program,
                                                               /*seed=*/99, /*scale=*/8));
  EXPECT_TRUE(agrees) << b.name << "\nsynthesized:\n"
                      << result.program.ToString() << "\ngolden:\n"
                      << b.golden.ToString();
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (const Benchmark& b : AllBenchmarks()) names.push_back(b.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(All, BenchmarkTest, ::testing::ValuesIn(AllNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(BenchmarkRegistry, Has28Benchmarks) { EXPECT_EQ(AllBenchmarks().size(), 28u); }

TEST(BenchmarkRegistry, KindsMatchTable2) {
  // Spot-check the type pattern of Table 2.
  const Benchmark* yelp1 = workload::FindBenchmark("Yelp-1");
  ASSERT_NE(yelp1, nullptr);
  EXPECT_EQ(yelp1->source_kind, 'D');
  EXPECT_EQ(yelp1->target_kind, 'R');
  const Benchmark* tencent2 = workload::FindBenchmark("Tencent-2");
  ASSERT_NE(tencent2, nullptr);
  EXPECT_EQ(tencent2->source_kind, 'G');
  EXPECT_EQ(tencent2->target_kind, 'D');
  const Benchmark* mlb3 = workload::FindBenchmark("MLB-3");
  ASSERT_NE(mlb3, nullptr);
  EXPECT_EQ(mlb3->source_kind, 'R');
  EXPECT_EQ(mlb3->target_kind, 'R');
}

// --- Pinned search trajectory ----------------------------------------------

/// What Session::Synthesize returns on a scenario's curated example: the
/// iteration count and the program text. Captured from a sequential run
/// and pinned, so that a change to the solver or the sketch encoding that
/// moves the search shows up here as a test diff before it shows up as a
/// program-quality regression. Bike-1 (about 16k iterations) is left out
/// for time; the perfbench table3 workload covers it.
struct PinnedRun {
  const char* name;
  size_t iterations;
  const char* program;
};

const PinnedRun kPinnedRuns[] = {
    {"Yelp-1", 5,
     "BusinessT(bt_id, bt_name, bt_city) :- Business(bt_id, b_name1, _, b_stars3, _, "
     "_), Business(b_id1, bt_name, _, _, _, _), Business(b_id1, b_name1, bt_city, "
     "b_stars3, _, _).\n"
     "ReviewT(rt_id, rt_biz, rt_stars, rt_user) :- Business(rt_biz, b_name1, _, _, "
     "v1, _), Review(v1, _, _, _), Business(rt_biz, _, _, _, v2, _), Review(v2, _, _, "
     "_), Business(_, b_name1, _, _, v3, _), Review(v3, rt_id, rt_stars, rt_user), "
     "YUser(_, _, _).\n"
     "UserT(ut_id, ut_name) :- Business(_, _, _, _, v1, _), Review(v1, _, _, _), "
     "YUser(ut_id, ut_name, _).\n"},
    {"IMDB-1", 6,
     "FilmT(ft_id, ft_title, ft_year) :- Movie(ft_id, m_title1, _, _, _), "
     "Movie(m_id1, ft_title, _, _, _), Movie(m_id1, m_title1, ft_year, _, _).\n"
     "ActingT(act_film, act_name, act_role) :- Movie(_, m_title1, m_year1, v1, _), "
     "CastEntry(v1, c_pid1, act_role), Movie(act_film, m_title1, m_year1, _, _), "
     "Person(c_pid1, act_name, _).\n"
     "PersonT(pe_id, pe_name, pe_birth) :- Person(pe_id, p_name1, _), Person(p_id1, "
     "pe_name, _), Person(p_id1, p_name1, pe_birth).\n"},
    {"DBLP-1", 4,
     "ArticleT(a1_id, a1_title, a1_year, a1_venue) :- Article(a1_id, a1_title, "
     "a1_year, art_venue1, _), Article(a1_id, art_title2, a1_year, a1_venue, _), "
     "Article(a1_id, art_title2, art_year3, a1_venue, _), Article(a1_id, art_title2, "
     "art_year3, art_venue1, _).\n"
     "AuthorshipT(au_art, au_name, au_pos) :- Article(_, art_title3, _, art_venue1, "
     "v1), ArtAuthor(v1, aa_id1, _, _), Article(_, _, _, art_venue1, v2), "
     "ArtAuthor(v2, aa_id1, au_name, au_pos), Article(au_art, art_title3, _, _, _).\n"
     "InprocT(i1_id, i1_title, i1_year, i1_book) :- Inproc(i1_id, i1_title, i1_year, "
     "inp_book1, _), Inproc(i1_id, inp_title2, i1_year, i1_book, _), Inproc(i1_id, "
     "inp_title2, inp_year3, i1_book, _), Inproc(i1_id, inp_title2, inp_year3, "
     "inp_book1, _).\n"
     "InpAuthT(iu_inp, iu_name, iu_pos) :- Inproc(_, inp_title3, _, inp_book1, v1), "
     "InpAuthor(v1, ia_id1, _, _), Inproc(_, _, _, inp_book1, v2), InpAuthor(v2, "
     "ia_id1, iu_name, iu_pos), Inproc(iu_inp, inp_title3, _, _, _).\n"},
    {"Mondial-1", 18,
     "CountryT(ct_code, ct_name, ct_pop) :- Country(ct_code, ct_name, _, _), "
     "Country(ct_code, _, ct_pop, _), Org(_, _, ct_code).\n"
     "ProvinceT(pv_country, pv_name, pv_pop) :- Country(pv_country, co_name2, "
     "co_pop3, _), Org(_, _, _), Country(pv_country, _, co_pop3, v1), Province(v1, "
     "pv_name, pv_pop, _), Country(_, co_name2, co_pop3, v2), Province(v2, _, pv_pop, "
     "_).\n"
     "CityT(cy_prov, cy_name, cy_pop) :- Country(_, co_name3, _, v1), Province(v1, _, "
     "_, v2), PCity(v2, ci_id1, _, _), Country(_, _, _, v3), Province(v3, cy_prov, _, "
     "v4), PCity(v4, ci_id1, cy_name, cy_pop), Country(_, co_name3, _, v5), "
     "Province(v5, _, _, _).\n"
     "OrgT(og_id, og_name, og_member) :- Country(co_code1, _, _, _), Org(og_id, "
     "og_name, _), Org(og_id, _, co_code1), Org(_, og_name, og_member).\n"},
    {"MLB-1", 12,
     "TeamDoc(td_name, td_league, pl_id1), RosterE(pl_id1, re_name, "
     "re_pos) :- players(pl_id1, _, pl_team2, _), players(_, re_name, pl_team2, "
     "re_pos), teams(pl_team2, td_name, td_league).\n"
     "PitchDoc(pd_type, pd_speed, pd_player) :- pitches(_, pi_pitcher2, pd_type, "
     "pd_speed), players(pi_pitcher2, pd_player, _, _).\n"},
    {"Airbnb-1", 1,
     "HostDoc(hd_name, hd_since, h_id1), ListingE(h_id1, le_name, le_hood, "
     "le_price) :- hosts(h_id1, hd_name, hd_since), listings(_, le_name, h_id1, "
     "le_hood, le_price), hoods(le_hood, _).\n"},
    {"Patent-1", 2,
     "PatentDoc(pdo_title, pdo_year, ca_id1), CaseE(ca_id1, ce_court, "
     "ce_filed) :- cases(ca_id1, ca_patent1, ce_court, ce_filed), patents(ca_patent1, "
     "pdo_title, pdo_year).\n"
     "PartyDoc(pyd_name, pyd_role) :- parties(_, _, pyd_name, pyd_role).\n"},
    {"Tencent-1", 11,
     "FollowT(fo_follower, fo_followee, fo_weight) :- TFollow(tf_target1, tu_id1, "
     "fo_weight), TUser(tu_id1, fo_followee, _), TUser(tf_target1, fo_follower, _).\n"},
    {"Retina-1", 23,
     "NeuronT(nt_id, nt_type, nt_layer) :- RContact(_, nt_id, _, _), RNeuron(nt_id, "
     "nt_type, nt_layer, _).\n"
     "LinkT(lk_atype, lk_btype, lk_weight) :- RContact(rc_target1, rn_id2, lk_weight, "
     "_), RNeuron(rn_id2, lk_btype, _, _), RNeuron(rc_target1, lk_atype, _, _).\n"},
    {"Movie-1", 9,
     "FilmRT(fr_title, fr_year) :- GFilm(_, fr_title, fr_year).\n"
     "ActRT(ar_person, ar_film, ar_role) :- GActs(ga_source1, ga_target1, ar_role), "
     "GFilm(ga_target1, ar_film, _), GPerson(ga_source1, ar_person).\n"
     "RateRT(rr_user, rr_film, rr_score) :- GFilm(gf_id1, rr_film, _), "
     "GRates(gr_source1, gf_id1, rr_score), GUser(gr_source1, rr_user).\n"
     "PersonRT(prt_name) :- GPerson(_, prt_name).\n"
     "UserRT(urt_name) :- GUser(_, urt_name).\n"},
    {"Soccer-1", 44,
     "PlayerRT(py_name, py_country) :- SPlayer(_, py_name, py_country).\n"
     "ClubRT(cb_name, cb_league) :- SClub(_, cb_name, cb_league).\n"
     "TransferRT(tfr_from, tfr_to, tfr_player, tfr_fee) :- SClub(sc_id1, tfr_from, "
     "_), SClub(sc_id2, tfr_to, _), SPlayer(str_player1, tfr_player, _), "
     "STransfer(sc_id1, sc_id2, str_player1, tfr_fee, _).\n"
     "SquadRT(sq_player, sq_club, sq_shirt) :- SClub(sc_id1, sq_club, _), "
     "SPlayer(sp_id1, sq_player, _), SPlays(sp_id1, sc_id1, sq_shirt).\n"
     "CoachRT(ch_name, ch_club, ch_since) :- SClub(sc_id1, ch_club, _), "
     "SCoach(sco_id1, ch_name), SManages(sco_id1, sc_id1, ch_since).\n"},
    {"Tencent-2", 11,
     "FollowDoc(fd_follower, fd_followee, fd_weight) :- TFollow(tf_target1, tu_id1, "
     "fd_weight), TUser(tu_id1, fd_followee, _), TUser(tf_target1, fd_follower, _).\n"},
    {"Retina-2", 2035,
     "NeuronDoc(ndo_type, ndo_layer, rn_id1), ContactE(rn_id1, cte_btype, "
     "cte_weight) :- RContact(rn_id1, rc_source1, cte_weight, _), RNeuron(rc_source1, "
     "cte_btype, _, _), RNeuron(rn_id1, ndo_type, ndo_layer, _).\n"},
    {"Movie-2", 1,
     "FilmDoc(fdo_title, fdo_year, ga_source1), CastE(ga_source1, cse_actor, "
     "cse_role) :- GActs(ga_source1, ga_target1, cse_role), GFilm(ga_target1, "
     "fdo_title, fdo_year), GPerson(ga_source1, cse_actor).\n"},
    {"Soccer-2", 26,
     "ClubDoc(cdo_name, cdo_league, sc_id1), SquadE(sc_id1, sqe_player, "
     "sqe_shirt) :- SClub(sc_id1, cdo_name, cdo_league), SPlayer(sp_id1, sqe_player, "
     "_), SPlays(sp_id1, sc_id1, sqe_shirt).\n"
     "TransferDoc(tdo_from, tdo_to, tdo_fee) :- SClub(sc_id2, tdo_to, _), "
     "SClub(str_source1, tdo_from, _), STransfer(str_source1, sc_id2, _, tdo_fee, _).\n"},
    {"Yelp-2", 6,
     "BizNode(bz_id, bz_name) :- Business(bz_id, bz_name, _, _, _, _).\n"
     "UserNode(un_id, un_name) :- Business(_, _, _, _, v1, _), Review(v1, _, _, _), "
     "YUser(un_id, un_name, _).\n"
     "ReviewedE(rve_source, rve_target, rve_stars) :- Business(rve_target, _, _, _, "
     "v1, _), Review(v1, r_id1, _, _), Business(_, _, _, _, v2, _), Review(v2, r_id1, "
     "rve_stars, rve_source), YUser(_, _, _).\n"},
    {"IMDB-2", 20,
     "MovNode(mn_id, mn_title) :- Movie(mn_id, mn_title, _, _, _).\n"
     "PerNode(pn_id, pn_name) :- Person(pn_id, pn_name, _).\n"
     "ActEdge(ae_source, ae_target, ae_role) :- Movie(ae_target, m_title1, m_year1, "
     "v1, _), CastEntry(v1, ae_source, ae_role), Movie(ae_target, m_title1, m_year1, "
     "v2, _), CastEntry(v2, ae_source, _), Person(ae_source, _, _).\n"},
    {"DBLP-2", 5,
     "PubNode(pb_id, pb_title) :- Article(pb_id, pb_title, _, _, _).\n"
     "AuthNode(an_id, an_name) :- Article(_, _, _, _, v1), ArtAuthor(v1, _, _, _), "
     "Article(_, _, _, _, v2), ArtAuthor(v2, an_id, an_name, _).\n"
     "WroteE(wr_source, wr_target) :- Article(_, art_title1, _, _, v1), ArtAuthor(v1, "
     "wr_source, _, _), Article(wr_target, art_title1, _, _, _).\n"},
    {"Mondial-2", 11,
     "CountryNode(cn_code, cn_name) :- Country(cn_code, cn_name, _, _), Org(_, _, _).\n"
     "CityNode(cyn_id, cyn_name) :- Country(_, _, _, v1), Province(v1, _, pr_pop1, "
     "v2), PCity(v2, _, _, _), Country(_, _, _, v3), Province(v3, _, pr_pop1, v4), "
     "PCity(v4, cyn_id, cyn_name, _).\n"
     "InCountryE(ic_source, ic_target) :- Country(ic_target, _, _, v1), Province(v1, "
     "_, _, v2), PCity(v2, ic_source, _, _), Org(_, _, _).\n"},
    {"MLB-2", 8,
     "TeamNode(tm_id, tm_name) :- players(_, _, _, _), teams(tm_id, tm_name, _).\n"
     "PlayerNode(pln_id, pln_name) :- pitches(_, _, _, _), players(pln_id, pln_name, "
     "_, _).\n"
     "PlaysForE(pfe_source, pfe_target, pfe_pos) :- pitches(_, pi_pitcher1, _, _), "
     "players(pfe_source, pl_name1, _, _), players(pi_pitcher1, pl_name1, pfe_target, "
     "pfe_pos), teams(_, _, _).\n"
     "GameE(gme_source, gme_target) :- games(_, gme_source, gme_target), players(_, "
     "_, gme_source, _), teams(gme_source, _, _), teams(gme_target, _, _).\n"},
    {"Airbnb-2", 10,
     "HostNode(hn_id, hn_name) :- hosts(hn_id, hn_name, _), listings(_, _, _, _, _).\n"
     "ListingNode(lin_id, lin_name) :- listings(lin_id, lin_name, _, _, _), stays(_, "
     "lin_id, _).\n"
     "HostsE(hoe_source, hoe_target, hoe_price) :- hosts(h_id1, _, _), "
     "listings(hoe_target, li_name1, _, _, _), listings(hoe_target, _, h_id1, _, _), "
     "listings(_, li_name1, hoe_source, _, hoe_price), stays(_, _, _).\n"},
    {"Patent-2", 5,
     "PatentNode(pan_id, pan_title) :- cases(_, _, _, _), patents(pan_id, pan_title, "
     "_).\n"
     "CaseNode(can_id, can_court) :- attorneys(_, at_case1, _), cases(can_id, "
     "ca_patent1, _, _), cases(at_case1, ca_patent1, can_court, _), parties(_, _, _, "
     "_).\n"
     "LitigatesE(lte_source, lte_target, lte_filed) :- attorneys(_, at_case1, _), "
     "cases(lte_source, lte_target, _, _), cases(at_case1, lte_target, _, lte_filed), "
     "patents(_, _, _), parties(_, _, _, _).\n"},
    {"Bike-2", 12,
     "StationNode(snn_id, snn_name) :- stations(snn_id, snn_name, _, _), trips(_, _, "
     "_, _, _).\n"
     "BikeNode(bkn_id, bkn_model) :- bikes(bkn_id, bkn_model), trips(_, _, _, _, "
     "bkn_id).\n"
     "TripEdge(tre_source, tre_target, tre_dur) :- stations(_, _, _, _), trips(_, "
     "tre_source, tre_target, tre_dur, _).\n"},
    {"MLB-3", 13,
     "RosterT(ro_team, ro_player, ro_pos) :- players(_, ro_player, pl_team2, ro_pos), "
     "teams(pl_team2, ro_team, _).\n"
     "TeamT(te_name, te_league) :- teams(_, te_name, te_league).\n"
     "SpeedT(spd_player, spd_speed) :- pitches(_, pi_pitcher1, _, spd_speed), "
     "players(pi_pitcher1, spd_player, _, _).\n"
     "GameT(gat_game, gat_home, gat_away) :- games(gat_game, t_id2, g_away1), "
     "teams(t_id2, gat_home, _), teams(g_away1, gat_away, _).\n"},
    {"Airbnb-3", 7,
     "ListingFullT(lf_host, lf_name, lf_hood, lf_price) :- hosts(h_id1, lf_host, _), "
     "listings(_, lf_name, h_id1, lf_hood, lf_price), hoods(_, _).\n"
     "HostT(ht_name, ht_since) :- hosts(_, ht_name, ht_since).\n"
     "RatingT(rg_listing, rg_rating) :- listings(sy_listing1, rg_listing, _, _, _), "
     "stays(_, sy_listing1, rg_rating).\n"
     "HoodT(hot_name, hot_borough) :- listings(_, _, _, _, _), hoods(hot_name, "
     "hot_borough).\n"},
    {"Patent-3", 9,
     "CaseFullT(cf_title, cf_court, cf_filed) :- cases(_, ca_patent1, cf_court, "
     "cf_filed), patents(ca_patent1, cf_title, _).\n"
     "PartyFullT(pfu_name, pfu_role, pfu_court) :- cases(ca_id1, _, pfu_court, _), "
     "parties(_, ca_id1, pfu_name, pfu_role).\n"
     "PatentT(ptt_title, ptt_year) :- patents(_, ptt_title, ptt_year).\n"
     "AttorneyT(att_name, att_court) :- attorneys(_, at_case1, att_name), "
     "cases(at_case1, _, att_court, _).\n"},
    {"Bike-3", 50,
     "TripFullT(tf_start, tf_end, tf_dur) :- stations(st_id1, tf_end, _, _), "
     "stations(st_id2, tf_start, _, _), trips(_, st_id2, st_id1, tf_dur, _).\n"
     "StationT(stt_name, stt_city, stt_docks) :- stations(_, stt_name, stt_city, "
     "stt_docks), weather(_, _, _).\n"
     "BikeTripT(btt_model, btt_dur) :- bikes(bk_id1, btt_model), trips(_, _, _, "
     "btt_dur, bk_id1).\n"
     "WeatherT(wt_city, wt_temp) :- weather(_, wt_city, wt_temp).\n"},
};

void PrintTo(const PinnedRun& run, std::ostream* os) { *os << run.name; }

class PinnedTrajectoryTest : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PinnedTrajectoryTest, SynthesizeMatchesPinnedRun) {
  const PinnedRun& pin = GetParam();
  const Benchmark& b = *workload::FindBenchmark(pin.name);
  ASSERT_OK_AND_ASSIGN(Example example,
                       workload::MakeExample(b, b.example_seed, b.example_scale));
  SessionOptions options;
  options.num_threads = 1;
  ASSERT_OK_AND_ASSIGN(Session session, Session::Create(b.source, b.target, options));
  ASSERT_OK_AND_ASSIGN(SynthesisResult result, session.Synthesize(example));
  EXPECT_EQ(result.iterations, pin.iterations);
  EXPECT_EQ(result.program.ToString(), pin.program);
}

INSTANTIATE_TEST_SUITE_P(Table3, PinnedTrajectoryTest, ::testing::ValuesIn(kPinnedRuns),
                         [](const ::testing::TestParamInfo<PinnedRun>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dynamite
