//===- markers/Serialize.cpp ----------------------------------------------==//

#include "markers/Serialize.h"

#include <charconv>
#include <sstream>

using namespace spm;

namespace {

const char *kindToken(NodeKind K) {
  switch (K) {
  case NodeKind::Root:
    return "root";
  case NodeKind::ProcHead:
    return "phead";
  case NodeKind::ProcBody:
    return "pbody";
  case NodeKind::LoopHead:
    return "lhead";
  case NodeKind::LoopBody:
    return "lbody";
  }
  return "?";
}

bool kindFromToken(const std::string &T, NodeKind &Out) {
  if (T == "root")
    Out = NodeKind::Root;
  else if (T == "phead")
    Out = NodeKind::ProcHead;
  else if (T == "pbody")
    Out = NodeKind::ProcBody;
  else if (T == "lhead")
    Out = NodeKind::LoopHead;
  else if (T == "lbody")
    Out = NodeKind::LoopBody;
  else
    return false;
  return true;
}

std::string endpointName(const PortableEndpoint &E) {
  switch (E.K) {
  case NodeKind::Root:
    return "-";
  case NodeKind::ProcHead:
  case NodeKind::ProcBody:
    return E.Func;
  case NodeKind::LoopHead:
  case NodeKind::LoopBody: {
    // Appended, not `"s" + std::to_string(...)`: see callloop/Graph.cpp.
    std::string Name = "s";
    Name += std::to_string(E.LoopStmt);
    return Name;
  }
  }
  return "-";
}

bool parseEndpoint(const std::string &KindTok, const std::string &NameTok,
                   PortableEndpoint &Out, std::string &Err) {
  if (!kindFromToken(KindTok, Out.K)) {
    Err = "unknown endpoint kind '" + KindTok + "'";
    return false;
  }
  switch (Out.K) {
  case NodeKind::Root:
    if (NameTok != "-") {
      Err = "root endpoint must be named '-'";
      return false;
    }
    return true;
  case NodeKind::ProcHead:
  case NodeKind::ProcBody:
    if (NameTok.empty() || NameTok == "-") {
      Err = "procedure endpoint needs a function name";
      return false;
    }
    Out.Func = NameTok;
    return true;
  case NodeKind::LoopHead:
  case NodeKind::LoopBody: {
    if (NameTok.size() < 2 || NameTok[0] != 's') {
      Err = "loop endpoint must be 's<stmt-id>', got '" + NameTok + "'";
      return false;
    }
    uint32_t Stmt = 0;
    auto [Ptr, Ec] = std::from_chars(NameTok.data() + 1,
                                     NameTok.data() + NameTok.size(), Stmt);
    if (Ec != std::errc() || Ptr != NameTok.data() + NameTok.size()) {
      Err = "bad loop statement id '" + NameTok + "'";
      return false;
    }
    Out.LoopStmt = Stmt;
    return true;
  }
  }
  return false;
}

} // namespace

std::string spm::serializeMarkers(const std::vector<PortableMarker> &Ms) {
  std::string Out = "spm-markers v1\n";
  for (const PortableMarker &M : Ms) {
    Out += kindToken(M.From.K);
    Out += ' ';
    Out += endpointName(M.From);
    Out += ' ';
    Out += kindToken(M.To.K);
    Out += ' ';
    Out += endpointName(M.To);
    Out += ' ';
    Out += std::to_string(M.GroupN);
    Out += '\n';
  }
  return Out;
}

std::optional<std::vector<PortableMarker>>
spm::parseMarkers(const std::string &Text, std::string *Error) {
  auto Fail = [&](const std::string &Msg, size_t Line)
      -> std::optional<std::vector<PortableMarker>> {
    if (Error)
      *Error = "line " + std::to_string(Line) + ": " + Msg;
    return std::nullopt;
  };

  std::istringstream In(Text);
  std::string Line;
  size_t LineNo = 0;
  if (!std::getline(In, Line) || Line != "spm-markers v1")
    return Fail("missing 'spm-markers v1' header", 1);
  ++LineNo;

  std::vector<PortableMarker> Out;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string FK, FN, TK, TN, GN;
    if (!(LS >> FK >> FN >> TK >> TN >> GN))
      return Fail("expected 5 fields", LineNo);
    std::string Extra;
    if (LS >> Extra)
      return Fail("trailing junk '" + Extra + "'", LineNo);

    PortableMarker M;
    std::string Err;
    if (!parseEndpoint(FK, FN, M.From, Err) ||
        !parseEndpoint(TK, TN, M.To, Err))
      return Fail(Err, LineNo);
    uint32_t G = 0;
    auto [Ptr, Ec] = std::from_chars(GN.data(), GN.data() + GN.size(), G);
    if (Ec != std::errc() || Ptr != GN.data() + GN.size() || G == 0)
      return Fail("bad group factor '" + GN + "'", LineNo);
    M.GroupN = G;
    Out.push_back(std::move(M));
  }
  return Out;
}
