#include "workload/benchmarks.h"

#include "api/session.h"
#include "schema/schema_builder.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "workload/families.h"

namespace dynamite {
namespace workload {

namespace {

using B = RelationalSchemaBuilder;
using D = DocumentSchemaBuilder;
using G = GraphSchemaBuilder;
constexpr PrimitiveType kI = PrimitiveType::kInt;
constexpr PrimitiveType kS = PrimitiveType::kString;

Benchmark Make(const std::string& name, const std::string& family, char target_kind,
               Schema target, const char* golden_text, size_t example_scale = 3,
               uint64_t example_seed = 7) {
  const Family& f = GetFamily(family);
  Benchmark b;
  b.name = name;
  b.family = family;
  b.source_kind = f.kind;
  b.target_kind = target_kind;
  b.source = f.schema;
  b.target = std::move(target);
  auto parsed = Program::Parse(golden_text);
  DYNAMITE_CHECK(parsed.ok(), "golden program must parse");
  b.golden = std::move(parsed).ValueOrDie();
  b.example_scale = example_scale;
  b.example_seed = example_seed;
  return b;
}

// ------------------------------------------------------- document -> rel

Benchmark Yelp1() {
  Schema t = B()
                 .AddTable("BusinessT", {{"bt_id", kI}, {"bt_name", kS}, {"bt_city", kS}})
                 .AddTable("ReviewT",
                           {{"rt_id", kI}, {"rt_biz", kI}, {"rt_stars", kI}, {"rt_user", kI}})
                 .AddTable("UserT", {{"ut_id", kI}, {"ut_name", kS}})
                 .Build()
                 .ValueOrDie();
  return Make("Yelp-1", "Yelp", 'R', std::move(t), R"(
    BusinessT(i, n, c) :- Business(i, n, c, _, _, _).
    ReviewT(r, b, s, u) :- Business(b, _, _, _, rv, _), Review(rv, r, s, u).
    UserT(u, n) :- YUser(u, n, _).
  )");
}

Benchmark Imdb1() {
  Schema t = B()
                 .AddTable("FilmT", {{"ft_id", kI}, {"ft_title", kS}, {"ft_year", kI}})
                 .AddTable("ActingT", {{"act_film", kI}, {"act_name", kS}, {"act_role", kS}})
                 .AddTable("PersonT", {{"pe_id", kI}, {"pe_name", kS}, {"pe_birth", kI}})
                 .Build()
                 .ValueOrDie();
  return Make("IMDB-1", "IMDB", 'R', std::move(t), R"(
    FilmT(m, t, y) :- Movie(m, t, y, _, _).
    ActingT(m, n, r) :- Movie(m, _, _, cl, _), CastEntry(cl, p, r), Person(p, n, _).
    PersonT(p, n, b) :- Person(p, n, b).
  )");
}

Benchmark Dblp1() {
  Schema t =
      B()
          .AddTable("ArticleT",
                    {{"a1_id", kI}, {"a1_title", kS}, {"a1_year", kI}, {"a1_venue", kS}})
          .AddTable("AuthorshipT", {{"au_art", kI}, {"au_name", kS}, {"au_pos", kI}})
          .AddTable("InprocT",
                    {{"i1_id", kI}, {"i1_title", kS}, {"i1_year", kI}, {"i1_book", kS}})
          .AddTable("InpAuthT", {{"iu_inp", kI}, {"iu_name", kS}, {"iu_pos", kI}})
          .Build()
          .ValueOrDie();
  return Make("DBLP-1", "DBLP", 'R', std::move(t), R"(
    ArticleT(i, t, y, v) :- Article(i, t, y, v, _).
    AuthorshipT(i, n, p) :- Article(i, _, _, _, al), ArtAuthor(al, _, n, p).
    InprocT(i, t, y, b) :- Inproc(i, t, y, b, _).
    InpAuthT(i, n, p) :- Inproc(i, _, _, _, al), InpAuthor(al, _, n, p).
  )");
}

Benchmark Mondial1() {
  Schema t = B()
                 .AddTable("CountryT", {{"ct_code", kI}, {"ct_name", kS}, {"ct_pop", kI}})
                 .AddTable("ProvinceT", {{"pv_country", kI}, {"pv_name", kS}, {"pv_pop", kI}})
                 .AddTable("CityT", {{"cy_prov", kS}, {"cy_name", kS}, {"cy_pop", kI}})
                 .AddTable("OrgT", {{"og_id", kI}, {"og_name", kS}, {"og_member", kI}})
                 .Build()
                 .ValueOrDie();
  return Make("Mondial-1", "Mondial", 'R', std::move(t), R"(
    CountryT(c, n, p) :- Country(c, n, p, _).
    ProvinceT(c, n, p) :- Country(c, _, _, pv), Province(pv, n, p, _).
    CityT(pn, cn, cp) :- Province(_, pn, _, ct), PCity(ct, _, cn, cp).
    OrgT(i, n, m) :- Org(i, n, m).
  )");
}

// ------------------------------------------------------- rel -> document

Benchmark Mlb1() {
  Schema t = D()
                 .AddCollection("TeamDoc", {{"td_name", kS}, {"td_league", kS}})
                 .AddCollection("RosterE", {{"re_name", kS}, {"re_pos", kS}}, "TeamDoc")
                 .AddCollection("PitchDoc", {{"pd_type", kS}, {"pd_speed", kI}, {"pd_player", kS}})
                 .Build()
                 .ValueOrDie();
  return Make("MLB-1", "MLB", 'D', std::move(t), R"(
    TeamDoc(n, l, t), RosterE(t, pn, pos) :- teams(t, n, l), players(_, pn, t, pos).
    PitchDoc(ty, s, n) :- pitches(_, p, ty, s), players(p, n, _, _).
  )");
}

Benchmark Airbnb1() {
  Schema t = D()
                 .AddCollection("HostDoc", {{"hd_name", kS}, {"hd_since", kI}})
                 .AddCollection("ListingE", {{"le_name", kS}, {"le_hood", kS}, {"le_price", kI}},
                                "HostDoc")
                 .Build()
                 .ValueOrDie();
  return Make("Airbnb-1", "Airbnb", 'D', std::move(t), R"(
    HostDoc(n, s, h), ListingE(h, ln, hd, pr) :- hosts(h, n, s), listings(_, ln, h, hd, pr).
  )");
}

Benchmark Patent1() {
  Schema t = D()
                 .AddCollection("PatentDoc", {{"pdo_title", kS}, {"pdo_year", kI}})
                 .AddCollection("CaseE", {{"ce_court", kS}, {"ce_filed", kI}}, "PatentDoc")
                 .AddCollection("PartyDoc", {{"pyd_name", kS}, {"pyd_role", kS}})
                 .Build()
                 .ValueOrDie();
  return Make("Patent-1", "Patent", 'D', std::move(t), R"(
    PatentDoc(t, y, p), CaseE(p, c, f) :- patents(p, t, y), cases(_, p, c, f).
    PartyDoc(n, r) :- parties(_, _, n, r).
  )");
}

Benchmark Bike1() {
  // The departures keep the bike id and duration rather than the end
  // station: end-station ids alias start-station ids and station ids all at
  // once, which explodes the sketch with spurious copies — the paper's
  // curated real-data examples do not exhibit that pathology (Bike-2's flat
  // TripEdge still covers the start/end-station mapping).
  Schema t = D()
                 .AddCollection("StationDoc", {{"sdo_name", kS}, {"sdo_city", kS}})
                 .AddCollection("DepartureE", {{"de_bike", kI}, {"de_dur", kI}}, "StationDoc")
                 .Build()
                 .ValueOrDie();
  return Make("Bike-1", "Bike", 'D', std::move(t), R"(
    StationDoc(n, c, s), DepartureE(s, b, d) :- stations(s, n, c, _), trips(_, s, _, d, b).
  )");
}

// ------------------------------------------------------------ graph -> rel

Benchmark Tencent1() {
  Schema t = B()
                 .AddTable("FollowT", {{"fo_follower", kS}, {"fo_followee", kS}, {"fo_weight", kI}})
                 .Build()
                 .ValueOrDie();
  return Make("Tencent-1", "Tencent", 'R', std::move(t), R"(
    FollowT(a, b, w) :- TUser(x, a, _), TFollow(x, y, w), TUser(y, b, _).
  )");
}

Benchmark Retina1() {
  Schema t = B()
                 .AddTable("NeuronT", {{"nt_id", kI}, {"nt_type", kS}, {"nt_layer", kI}})
                 .AddTable("LinkT", {{"lk_atype", kS}, {"lk_btype", kS}, {"lk_weight", kI}})
                 .Build()
                 .ValueOrDie();
  return Make("Retina-1", "Retina", 'R', std::move(t), R"(
    NeuronT(i, t, l) :- RNeuron(i, t, l, _).
    LinkT(ta, tb, w) :- RContact(a, b, w, _), RNeuron(a, ta, _, _), RNeuron(b, tb, _, _).
  )");
}

Benchmark Movie1() {
  Schema t = B()
                 .AddTable("FilmRT", {{"fr_title", kS}, {"fr_year", kI}})
                 .AddTable("ActRT", {{"ar_person", kS}, {"ar_film", kS}, {"ar_role", kS}})
                 .AddTable("RateRT", {{"rr_user", kS}, {"rr_film", kS}, {"rr_score", kI}})
                 .AddTable("PersonRT", {{"prt_name", kS}})
                 .AddTable("UserRT", {{"urt_name", kS}})
                 .Build()
                 .ValueOrDie();
  return Make("Movie-1", "Movie", 'R', std::move(t), R"(
    FilmRT(t, y) :- GFilm(_, t, y).
    ActRT(pn, ft, r) :- GActs(p, m, r), GPerson(p, pn), GFilm(m, ft, _).
    RateRT(un, ft, s) :- GRates(u, m, s), GUser(u, un), GFilm(m, ft, _).
    PersonRT(n) :- GPerson(_, n).
    UserRT(n) :- GUser(_, n).
  )");
}

Benchmark Soccer1() {
  Schema t =
      B()
          .AddTable("PlayerRT", {{"py_name", kS}, {"py_country", kS}})
          .AddTable("ClubRT", {{"cb_name", kS}, {"cb_league", kS}})
          .AddTable("TransferRT",
                    {{"tfr_from", kS}, {"tfr_to", kS}, {"tfr_player", kS}, {"tfr_fee", kI}})
          .AddTable("SquadRT", {{"sq_player", kS}, {"sq_club", kS}, {"sq_shirt", kI}})
          // CoachRT keeps the since-year: SManages contributes a target
          // column so the sketch pulls it in (the link-relation restriction
          // of §4.2, same as MLB-3's GameT).
          .AddTable("CoachRT", {{"ch_name", kS}, {"ch_club", kS}, {"ch_since", kI}})
          .Build()
          .ValueOrDie();
  return Make("Soccer-1", "Soccer", 'R', std::move(t), R"(
    PlayerRT(n, c) :- SPlayer(_, n, c).
    ClubRT(n, l) :- SClub(_, n, l).
    TransferRT(f, t, p, fee) :- STransfer(a, b, pl, fee, _), SClub(a, f, _), SClub(b, t, _), SPlayer(pl, p, _).
    SquadRT(pn, cn, sh) :- SPlays(p, c, sh), SPlayer(p, pn, _), SClub(c, cn, _).
    CoachRT(n, c, s) :- SManages(co, cl, s), SCoach(co, n), SClub(cl, c, _).
  )");
}

// ------------------------------------------------------------ graph -> doc

Benchmark Tencent2() {
  Schema t = D()
                 .AddCollection("FollowDoc",
                                {{"fd_follower", kS}, {"fd_followee", kS}, {"fd_weight", kI}})
                 .Build()
                 .ValueOrDie();
  return Make("Tencent-2", "Tencent", 'D', std::move(t), R"(
    FollowDoc(a, b, w) :- TUser(x, a, _), TFollow(x, y, w), TUser(y, b, _).
  )");
}

Benchmark Retina2() {
  Schema t = D()
                 .AddCollection("NeuronDoc", {{"ndo_type", kS}, {"ndo_layer", kI}})
                 .AddCollection("ContactE", {{"cte_btype", kS}, {"cte_weight", kI}}, "NeuronDoc")
                 .Build()
                 .ValueOrDie();
  return Make("Retina-2", "Retina", 'D', std::move(t), R"(
    NeuronDoc(t, l, a), ContactE(a, bt, w) :- RNeuron(a, t, l, _), RContact(a, b, w, _), RNeuron(b, bt, _, _).
  )");
}

Benchmark Movie2() {
  Schema t = D()
                 .AddCollection("FilmDoc", {{"fdo_title", kS}, {"fdo_year", kI}})
                 .AddCollection("CastE", {{"cse_actor", kS}, {"cse_role", kS}}, "FilmDoc")
                 .Build()
                 .ValueOrDie();
  return Make("Movie-2", "Movie", 'D', std::move(t), R"(
    FilmDoc(t, y, m), CastE(m, an, r) :- GFilm(m, t, y), GActs(p, m, r), GPerson(p, an).
  )");
}

Benchmark Soccer2() {
  Schema t = D()
                 .AddCollection("ClubDoc", {{"cdo_name", kS}, {"cdo_league", kS}})
                 .AddCollection("SquadE", {{"sqe_player", kS}, {"sqe_shirt", kI}}, "ClubDoc")
                 .AddCollection("TransferDoc", {{"tdo_from", kS}, {"tdo_to", kS}, {"tdo_fee", kI}})
                 .Build()
                 .ValueOrDie();
  return Make("Soccer-2", "Soccer", 'D', std::move(t), R"(
    ClubDoc(n, l, c), SquadE(c, pn, sh) :- SClub(c, n, l), SPlays(p, c, sh), SPlayer(p, pn, _).
    TransferDoc(f, t, fee) :- STransfer(a, b, _, fee, _), SClub(a, f, _), SClub(b, t, _).
  )");
}

// ------------------------------------------------------------ doc -> graph

Benchmark Yelp2() {
  Schema t = G()
                 .AddNodeType("BizNode", {{"bz_id", kI}, {"bz_name", kS}})
                 .AddNodeType("UserNode", {{"un_id", kI}, {"un_name", kS}})
                 .AddEdgeType("ReviewedE", {{"rve_stars", kI}}, "rve")
                 .Build()
                 .ValueOrDie();
  return Make("Yelp-2", "Yelp", 'G', std::move(t), R"(
    BizNode(i, n) :- Business(i, n, _, _, _, _).
    UserNode(u, n) :- YUser(u, n, _).
    ReviewedE(u, b, s) :- Business(b, _, _, _, rv, _), Review(rv, _, s, u).
  )");
}

Benchmark Imdb2() {
  Schema t = G()
                 .AddNodeType("MovNode", {{"mn_id", kI}, {"mn_title", kS}})
                 .AddNodeType("PerNode", {{"pn_id", kI}, {"pn_name", kS}})
                 .AddEdgeType("ActEdge", {{"ae_role", kS}}, "ae")
                 .Build()
                 .ValueOrDie();
  return Make("IMDB-2", "IMDB", 'G', std::move(t), R"(
    MovNode(m, t) :- Movie(m, t, _, _, _).
    PerNode(p, n) :- Person(p, n, _).
    ActEdge(p, m, r) :- Movie(m, _, _, cl, _), CastEntry(cl, p, r).
  )");
}

Benchmark Dblp2() {
  Schema t = G()
                 .AddNodeType("PubNode", {{"pb_id", kI}, {"pb_title", kS}})
                 .AddNodeType("AuthNode", {{"an_id", kI}, {"an_name", kS}})
                 .AddEdgeType("WroteE", {}, "wr")
                 .Build()
                 .ValueOrDie();
  return Make("DBLP-2", "DBLP", 'G', std::move(t), R"(
    PubNode(i, t) :- Article(i, t, _, _, _).
    AuthNode(a, n) :- Article(_, _, _, _, al), ArtAuthor(al, a, n, _).
    WroteE(a, i) :- Article(i, _, _, _, al), ArtAuthor(al, a, _, _).
  )");
}

Benchmark Mondial2() {
  Schema t = G()
                 .AddNodeType("CountryNode", {{"cn_code", kI}, {"cn_name", kS}})
                 .AddNodeType("CityNode", {{"cyn_id", kI}, {"cyn_name", kS}})
                 .AddEdgeType("InCountryE", {}, "ic")
                 .Build()
                 .ValueOrDie();
  return Make("Mondial-2", "Mondial", 'G', std::move(t), R"(
    CountryNode(c, n) :- Country(c, n, _, _).
    CityNode(i, n) :- PCity(_, i, n, _).
    InCountryE(i, c) :- Country(c, _, _, pv), Province(pv, _, _, ct), PCity(ct, i, _, _).
  )");
}

// ------------------------------------------------------------- rel -> graph

Benchmark Mlb2() {
  Schema t = G()
                 .AddNodeType("TeamNode", {{"tm_id", kI}, {"tm_name", kS}})
                 .AddNodeType("PlayerNode", {{"pln_id", kI}, {"pln_name", kS}})
                 .AddEdgeType("PlaysForE", {{"pfe_pos", kS}}, "pfe")
                 .AddEdgeType("GameE", {}, "gme")
                 .Build()
                 .ValueOrDie();
  return Make("MLB-2", "MLB", 'G', std::move(t), R"(
    TeamNode(t, n) :- teams(t, n, _).
    PlayerNode(p, n) :- players(p, n, _, _).
    PlaysForE(p, t, pos) :- players(p, _, t, pos).
    GameE(h, a) :- games(_, h, a).
  )");
}

Benchmark Airbnb2() {
  Schema t = G()
                 .AddNodeType("HostNode", {{"hn_id", kI}, {"hn_name", kS}})
                 .AddNodeType("ListingNode", {{"lin_id", kI}, {"lin_name", kS}})
                 .AddEdgeType("HostsE", {{"hoe_price", kI}}, "hoe")
                 .Build()
                 .ValueOrDie();
  return Make("Airbnb-2", "Airbnb", 'G', std::move(t), R"(
    HostNode(h, n) :- hosts(h, n, _).
    ListingNode(l, n) :- listings(l, n, _, _, _).
    HostsE(h, l, p) :- listings(l, _, h, _, p).
  )");
}

Benchmark Patent2() {
  Schema t = G()
                 .AddNodeType("PatentNode", {{"pan_id", kI}, {"pan_title", kS}})
                 .AddNodeType("CaseNode", {{"can_id", kI}, {"can_court", kS}})
                 .AddEdgeType("LitigatesE", {{"lte_filed", kI}}, "lte")
                 .Build()
                 .ValueOrDie();
  return Make("Patent-2", "Patent", 'G', std::move(t), R"(
    PatentNode(p, t) :- patents(p, t, _).
    CaseNode(c, ct) :- cases(c, _, ct, _).
    LitigatesE(c, p, f) :- cases(c, p, _, f).
  )");
}

Benchmark Bike2() {
  Schema t = G()
                 .AddNodeType("StationNode", {{"snn_id", kI}, {"snn_name", kS}})
                 .AddNodeType("BikeNode", {{"bkn_id", kI}, {"bkn_model", kS}})
                 .AddEdgeType("TripEdge", {{"tre_dur", kI}}, "tre")
                 .Build()
                 .ValueOrDie();
  return Make("Bike-2", "Bike", 'G', std::move(t), R"(
    StationNode(s, n) :- stations(s, n, _, _).
    BikeNode(b, m) :- bikes(b, m).
    TripEdge(s, e, d) :- trips(_, s, e, d, _).
  )");
}

// --------------------------------------------------------------- rel -> rel

Benchmark Mlb3() {
  Schema t = B()
                 .AddTable("RosterT", {{"ro_team", kS}, {"ro_player", kS}, {"ro_pos", kS}})
                 .AddTable("TeamT", {{"te_name", kS}, {"te_league", kS}})
                 .AddTable("SpeedT", {{"spd_player", kS}, {"spd_speed", kI}})
                 // GameT keeps the game id: the sketch formalism (§4.2) only
                 // pulls in source relations that contribute at least one
                 // target attribute, so a pure link table like `games` must
                 // surface a column in the target to be expressible.
                 .AddTable("GameT", {{"gat_game", kI}, {"gat_home", kS}, {"gat_away", kS}})
                 .Build()
                 .ValueOrDie();
  return Make("MLB-3", "MLB", 'R', std::move(t), R"(
    RosterT(tn, pn, pos) :- players(_, pn, t, pos), teams(t, tn, _).
    TeamT(n, l) :- teams(_, n, l).
    SpeedT(pn, s) :- pitches(_, p, _, s), players(p, pn, _, _).
    GameT(g, hn, an) :- games(g, h, a), teams(h, hn, _), teams(a, an, _).
  )");
}

Benchmark Airbnb3() {
  Schema t =
      B()
          .AddTable("ListingFullT",
                    {{"lf_host", kS}, {"lf_name", kS}, {"lf_hood", kS}, {"lf_price", kI}})
          .AddTable("HostT", {{"ht_name", kS}, {"ht_since", kI}})
          .AddTable("RatingT", {{"rg_listing", kS}, {"rg_rating", kI}})
          .AddTable("HoodT", {{"hot_name", kS}, {"hot_borough", kS}})
          .Build()
          .ValueOrDie();
  return Make("Airbnb-3", "Airbnb", 'R', std::move(t), R"(
    ListingFullT(hn, ln, hd, pr) :- listings(_, ln, h, hd, pr), hosts(h, hn, _).
    HostT(n, s) :- hosts(_, n, s).
    RatingT(ln, r) :- stays(_, l, r), listings(l, ln, _, _, _).
    HoodT(n, b) :- hoods(n, b).
  )");
}

Benchmark Patent3() {
  Schema t = B()
                 .AddTable("CaseFullT", {{"cf_title", kS}, {"cf_court", kS}, {"cf_filed", kI}})
                 .AddTable("PartyFullT", {{"pfu_name", kS}, {"pfu_role", kS}, {"pfu_court", kS}})
                 .AddTable("PatentT", {{"ptt_title", kS}, {"ptt_year", kI}})
                 .AddTable("AttorneyT", {{"att_name", kS}, {"att_court", kS}})
                 .Build()
                 .ValueOrDie();
  return Make("Patent-3", "Patent", 'R', std::move(t), R"(
    CaseFullT(t, c, f) :- cases(_, p, c, f), patents(p, t, _).
    PartyFullT(n, r, c) :- parties(_, ca, n, r), cases(ca, _, c, _).
    PatentT(t, y) :- patents(_, t, y).
    AttorneyT(n, c) :- attorneys(_, ca, n), cases(ca, _, c, _).
  )");
}

Benchmark Bike3() {
  Schema t = B()
                 .AddTable("TripFullT", {{"tf_start", kS}, {"tf_end", kS}, {"tf_dur", kI}})
                 .AddTable("StationT", {{"stt_name", kS}, {"stt_city", kS}, {"stt_docks", kI}})
                 .AddTable("BikeTripT", {{"btt_model", kS}, {"btt_dur", kI}})
                 .AddTable("WeatherT", {{"wt_city", kS}, {"wt_temp", kI}})
                 .Build()
                 .ValueOrDie();
  return Make("Bike-3", "Bike", 'R', std::move(t), R"(
    TripFullT(sn, en, d) :- trips(_, s, e, d, _), stations(s, sn, _, _), stations(e, en, _, _).
    StationT(n, c, d) :- stations(_, n, c, d).
    BikeTripT(m, d) :- trips(_, _, _, d, b), bikes(b, m).
    WeatherT(c, t) :- weather(_, c, t).
  )");
}

}  // namespace

const std::vector<Benchmark>& AllBenchmarks() {
  static const std::vector<Benchmark>* benchmarks = new std::vector<Benchmark>{
      Yelp1(),    Imdb1(),    Dblp1(),    Mondial1(),  // doc -> rel
      Mlb1(),     Airbnb1(),  Patent1(),  Bike1(),     // rel -> doc
      Tencent1(), Retina1(),  Movie1(),   Soccer1(),   // graph -> rel
      Tencent2(), Retina2(),  Movie2(),   Soccer2(),   // graph -> doc
      Yelp2(),    Imdb2(),    Dblp2(),    Mondial2(),  // doc -> graph
      Mlb2(),     Airbnb2(),  Patent2(),  Bike2(),     // rel -> graph
      Mlb3(),     Airbnb3(),  Patent3(),  Bike3(),     // rel -> rel
  };
  return *benchmarks;
}

const Benchmark* FindBenchmark(const std::string& name) {
  for (const Benchmark& b : AllBenchmarks()) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

Result<RecordForest> GenerateSource(const Benchmark& bench, uint64_t seed, size_t scale) {
  const Family& f = GetFamily(bench.family);
  // Crash-free boundary: datagen's S() throws on string-pool overflow (see
  // datagen.h); surface it as the typed kOutOfRange this Result promises.
  return failpoint::GuardExceptions("source generation", [&]() -> Result<RecordForest> {
    RecordForest forest = f.generate(seed, scale);
    DYNAMITE_RETURN_NOT_OK(ValidateForest(forest, bench.source));
    return forest;
  });
}

Result<Example> MakeExample(const Benchmark& bench, uint64_t seed, size_t scale) {
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest input, GenerateSource(bench, seed, scale));
  DYNAMITE_ASSIGN_OR_RETURN(Session session, Session::Create(bench.source, bench.target));
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest output, session.Migrate(bench.golden, input));
  Example e;
  e.input = std::move(input);
  e.output = std::move(output);
  return e;
}

Result<bool> AgreesWithGolden(const Benchmark& bench, const Program& program,
                              uint64_t seed, size_t scale) {
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest validation, GenerateSource(bench, seed, scale));
  DYNAMITE_ASSIGN_OR_RETURN(Session session, Session::Create(bench.source, bench.target));
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest golden_out, session.Migrate(bench.golden, validation));
  DYNAMITE_ASSIGN_OR_RETURN(RecordForest synth_out, session.Migrate(program, validation));
  return ForestEquals(golden_out, synth_out);
}

}  // namespace workload
}  // namespace dynamite
